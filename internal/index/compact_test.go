package index_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// randTemporalDataset builds a random dataset with timestamps, so both
// the main and the departure-sorted temporal lists get exercised.
// Duplicate departure times are injected on purpose: the compact rank
// order must break those ties exactly like sortByDeparture (stably).
func randTemporalDataset(rng *rand.Rand, alpha, numTraj, maxLen int) *traj.Dataset {
	ds := traj.NewDataset(traj.VertexRep)
	for i := 0; i < numTraj; i++ {
		n := rng.Intn(maxLen) + 1
		p := make([]traj.Symbol, n)
		for j := range p {
			p[j] = traj.Symbol(rng.Intn(alpha))
		}
		start := float64(rng.Intn(50)) // coarse: forces departure ties
		ts := make([]float64, n)
		for j := range ts {
			ts[j] = start + float64(j)
		}
		ds.Add(traj.Trajectory{Path: p, Times: ts})
	}
	return ds
}

// collect drains a posting slice into an owned copy (source scratch is
// only valid until the next call).
func collect(ps []index.Posting) []index.Posting {
	return append([]index.Posting(nil), ps...)
}

// TestCompactEquivalentToInverted is the index-layer equivalence check:
// for every symbol of a random temporal dataset, the frozen arena must
// answer Freq, Postings, PostingsInWindow (several windows including
// empty and all-covering ones), Interval, and IntervalOverlaps
// bit-identically to the pointer index.
func TestCompactEquivalentToInverted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randTemporalDataset(rng, 40, 300, 30)
	inv := index.Build(ds)
	inv.BuildTemporal()
	c := index.Freeze(inv)

	if c.NumTrajectories() != ds.Len() || c.NumPostings() != inv.NumPostings() {
		t.Fatalf("counts: compact (%d traj, %d postings), inverted (%d, %d)",
			c.NumTrajectories(), c.NumPostings(), ds.Len(), inv.NumPostings())
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		glo, ghi := c.Interval(id)
		wlo, whi, _ := ds.Get(id).Interval()
		if glo != wlo || ghi != whi {
			t.Fatalf("Interval(%d) = (%g, %g), want (%g, %g)", id, glo, ghi, wlo, whi)
		}
	}
	windows := [][2]float64{{0, 100}, {10, 20}, {25, 25}, {90, 5}, {-5, -1}, {49, 80}}
	src := c.Source(0)
	defer index.ReleaseSource(src)
	for sym := traj.Symbol(0); sym < 45; sym++ { // includes absent symbols
		if got, want := c.Freq(sym), inv.Freq(sym); got != want {
			t.Fatalf("Freq(%d) = %d, want %d", sym, got, want)
		}
		if got, want := collect(src.Postings(sym)), collect(inv.Postings(sym)); !reflect.DeepEqual(got, want) {
			t.Fatalf("Postings(%d):\n got %v\nwant %v", sym, got, want)
		}
		for _, w := range windows {
			got := collect(src.PostingsInWindow(sym, w[0], w[1]))
			want := collect(inv.PostingsInWindow(sym, w[0], w[1]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("PostingsInWindow(%d, %g, %g):\n got %v\nwant %v", sym, w[0], w[1], got, want)
			}
		}
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		for _, w := range windows {
			if got, want := src.IntervalOverlaps(id, w[0], w[1]), inv.IntervalOverlaps(id, w[0], w[1]); got != want {
				t.Fatalf("IntervalOverlaps(%d, %g, %g) = %v, want %v", id, w[0], w[1], got, want)
			}
		}
	}
}

// TestCompactSaveLoadMmap checks the persistence loop: Save → LoadCompact
// and Save → OpenMapped both yield arenas that are byte-identical on
// re-save and answer queries identically to the original.
func TestCompactSaveLoadMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randTemporalDataset(rng, 25, 200, 25)
	c := index.FreezeDataset(ds)

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	loaded, err := index.LoadCompact(saved)
	if err != nil {
		t.Fatalf("LoadCompact: %v", err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}

	path := filepath.Join(t.TempDir(), "idx.sbtj")
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := index.OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()
	if !bytes.Equal(mapped.Bytes(), saved) {
		t.Fatal("mapped arena differs from saved bytes")
	}
	a, b := c.Source(0), mapped.Source(0)
	defer index.ReleaseSource(a)
	defer index.ReleaseSource(b)
	for sym := traj.Symbol(0); sym < 25; sym++ {
		if got, want := collect(b.Postings(sym)), collect(a.Postings(sym)); !reflect.DeepEqual(got, want) {
			t.Fatalf("mapped Postings(%d) differ", sym)
		}
		if got, want := collect(b.PostingsInWindow(sym, 5, 30)), collect(a.PostingsInWindow(sym, 5, 30)); !reflect.DeepEqual(got, want) {
			t.Fatalf("mapped PostingsInWindow(%d) differ", sym)
		}
	}
}

// TestCompactRejectsCorruption flips every byte of a small arena in turn:
// LoadCompact must reject each mutant (checksum or structure) — never
// panic — and OpenMapped must reject a truncated file.
func TestCompactRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randTemporalDataset(rng, 8, 20, 8)
	c := index.FreezeDataset(ds)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	mut := make([]byte, len(saved))
	for i := range saved {
		copy(mut, saved)
		mut[i] ^= 0x5a
		if _, err := index.LoadCompact(mut); err == nil {
			t.Fatalf("flipping byte %d of %d was not rejected", i, len(saved))
		}
	}
	for _, n := range []int{0, 1, 95, 96, len(saved) - 1} {
		if _, err := index.LoadCompact(saved[:n]); err == nil {
			t.Fatalf("truncation to %d bytes was not rejected", n)
		}
	}
	path := filepath.Join(t.TempDir(), "trunc.sbtj")
	if err := os.WriteFile(path, saved[:len(saved)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := index.OpenMapped(path); err == nil {
		t.Fatal("OpenMapped accepted a truncated file")
	}
}

// TestCompactMemorySmaller pins the point of the exercise on a
// non-trivial input: the frozen arena must be several times smaller than
// the pointer index's estimated heap.
func TestCompactMemorySmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randTemporalDataset(rng, 60, 2000, 40)
	inv := index.Build(ds)
	inv.BuildTemporal()
	c := index.Freeze(inv)
	if ratio := float64(inv.IndexBytes()) / float64(c.IndexBytes()); ratio < 2 {
		t.Fatalf("compact arena only %.2fx smaller (%d vs %d bytes)", ratio, c.IndexBytes(), inv.IndexBytes())
	}
}
