package index_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// randTemporalDataset builds a random dataset with timestamps, so both
// the ID-ordered and the departure-ordered lists get exercised. Duplicate
// departure times are injected on purpose: the rank order must break
// those ties by ID, as a stable sort of the ID-ordered lists would.
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

// TestCompactEquivalentToInverted is the index-layer check: for every
// symbol of a random temporal dataset, and for absent ones, the arena
// answers Freq, AppendPostings, AppendPostingsInWindow (several windows,
// empty and all-covering ones among them), Interval and IntervalOverlaps
// exactly as the brute-force inverted lists do, and an append keeps what
// the buffer already held.
func TestCompactEquivalentToInverted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randTemporalDataset(rng, 40, 300, 30)
	c := index.Build(ds)
	lists := referenceLists(ds)
	if c.NumTrajectories() != ds.Len() || c.NumPostings() != ds.TotalSymbols() {
		t.Fatalf("counts: (%d traj, %d postings), want (%d, %d)", c.NumTrajectories(), c.NumPostings(), ds.Len(), ds.TotalSymbols())
	}
	windows := [][2]float64{{0, 100}, {10, 20}, {25, 25}, {90, 5}, {-5, -1}, {49, 80}}
	prefix := []index.Posting{{ID: -7, Pos: -7}}
	for sym := traj.Symbol(0); sym < 45; sym++ {
		if got, want := c.Freq(sym), len(lists[sym]); got != want {
			t.Fatalf("Freq(%d) = %d, want %d", sym, got, want)
		}
		if got := c.AppendPostings(slices.Clone(prefix), sym); !slices.Equal(got, append(slices.Clone(prefix), lists[sym]...)) {
			t.Fatalf("AppendPostings(%d):\n got %v\nwant %v", sym, got, lists[sym])
		}
		for _, w := range windows {
			want := append(slices.Clone(prefix), referenceWindow(ds, lists[sym], w[0], w[1])...)
			if got := c.AppendPostingsInWindow(slices.Clone(prefix), sym, w[0], w[1]); !slices.Equal(got, want) {
				t.Fatalf("AppendPostingsInWindow(%d, %g, %g):\n got %v\nwant %v", sym, w[0], w[1], got, want)
			}
		}
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		lo, hi, _ := ds.Get(id).Interval()
		for _, w := range windows {
			if got, want := c.IntervalOverlaps(id, w[0], w[1]), lo <= w[1] && hi >= w[0]; got != want {
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
	c := index.Build(ds)

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
	for sym := traj.Symbol(0); sym < 25; sym++ {
		if !slices.Equal(mapped.AppendPostings(nil, sym), c.AppendPostings(nil, sym)) {
			t.Fatalf("mapped postings of %d differ", sym)
		}
		if !slices.Equal(mapped.AppendPostingsInWindow(nil, sym, 5, 30), c.AppendPostingsInWindow(nil, sym, 5, 30)) {
			t.Fatalf("mapped window postings of %d differ", sym)
		}
	}
}

// TestCompactRejectsCorruption flips every byte of a small arena in turn:
// LoadCompact must reject each mutant (checksum or structure) — never
// panic — and OpenMapped must reject a truncated file. An arena of the
// previous format version fails on its version, whatever else it holds.
func TestCompactRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randTemporalDataset(rng, 8, 20, 8)
	saved := index.Build(ds).Bytes()
	mut := make([]byte, len(saved))
	for i := range saved {
		copy(mut, saved)
		mut[i] ^= 0x5a
		if _, err := index.LoadCompact(mut); err == nil {
			t.Fatalf("flipping byte %d of %d was not rejected", i, len(saved))
		}
	}
	for _, n := range []int{0, 1, 63, 64, len(saved) - 1} {
		if _, err := index.LoadCompact(saved[:n]); err == nil {
			t.Fatalf("truncation to %d bytes was not rejected", n)
		}
	}
	copy(mut, saved)
	binary.LittleEndian.PutUint32(mut[8:], 1)
	if _, err := index.LoadCompact(mut); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("a version-1 arena: %v, want the version error", err)
	}
	path := filepath.Join(t.TempDir(), "trunc.sbtj")
	if err := os.WriteFile(path, saved[:len(saved)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := index.OpenMapped(path); err == nil {
		t.Fatal("OpenMapped accepted a truncated file")
	}
}

// TestCompactMemorySmaller pins the point of the layout on a non-trivial
// input: the arena is several times smaller than the same two lists per
// symbol and the intervals held as plain 8-byte postings and floats.
func TestCompactMemorySmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randTemporalDataset(rng, 60, 2000, 40)
	c := index.Build(ds)
	plain := int64(2*8*ds.TotalSymbols() + 16*ds.Len())
	if ratio := float64(plain) / float64(c.IndexBytes()); ratio < 2 {
		t.Fatalf("arena only %.2fx smaller than plain lists (%d vs %d bytes)", ratio, c.IndexBytes(), plain)
	}
}

// TestCompactWideLanes drives the lane widths the drawn datasets never
// reach: a symbol whose trajectories lie 70,000 IDs apart (four-byte key
// deltas), one on every 300th trajectory (two-byte key deltas), a path of
// 70,000 positions (four-byte positions), and a symbol repeated inside one
// trajectory (zero-byte key deltas). Every list must
// round-trip, in both orders, and the arena must pass its loader.
func TestCompactWideLanes(t *testing.T) {
	ds := traj.NewDataset(traj.VertexRep)
	long := make([]traj.Symbol, 70_000)
	for i := range long {
		long[i] = traj.Symbol(i % 3)
	}
	ds.Add(traj.Trajectory{Path: long, Times: []float64{5}})
	for id := 1; id < 70_000; id++ {
		p := []traj.Symbol{3}
		if id%300 == 0 {
			p = append(p, 5)
		}
		ds.Add(traj.Trajectory{Path: p, Times: []float64{float64(id % 7), float64(id%7 + 1)}[:len(p)]})
	}
	ds.Add(traj.Trajectory{Path: []traj.Symbol{1, 4, 4, 4}, Times: []float64{2}})
	c := index.Build(ds)
	if _, err := index.LoadCompact(c.Bytes()); err != nil {
		t.Fatalf("the arena fails its loader: %v", err)
	}
	for sym, list := range referenceLists(ds) {
		if got := c.AppendPostings(nil, sym); !slices.Equal(got, list) {
			t.Fatalf("postings of %d differ (%d vs %d)", sym, len(got), len(list))
		}
		if got, want := c.AppendPostingsInWindow(nil, sym, 1, 5), referenceWindow(ds, list, 1, 5); !slices.Equal(got, want) {
			t.Fatalf("window postings of %d differ (%d vs %d)", sym, len(got), len(want))
		}
	}
}
