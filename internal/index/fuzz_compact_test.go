package index_test

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/testutil"
)

// loadCompactCorpus reads the checked-in arena corpus: the golden dataset
// built by Build and written by Save.
func loadCompactCorpus(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_compact.bin")
	if err != nil {
		t.Fatalf("compact seed corpus missing: %v", err)
	}
	return data
}

// TestGoldenCompactCorpusLoads pins the on-disk format: the checked-in
// arena must keep loading, must equal a fresh build of the golden dataset
// byte for byte (Build is deterministic), must re-save byte-identically,
// and must answer like the brute-force lists of the dataset. Any format
// change that breaks old files breaks this test first.
func TestGoldenCompactCorpusLoads(t *testing.T) {
	data := loadCompactCorpus(t)
	got, err := index.LoadCompact(data)
	if err != nil {
		t.Fatalf("corpus does not load: %v", err)
	}
	ds := testutil.GoldenDataset()
	if !bytes.Equal(index.Build(ds).Bytes(), data) {
		t.Fatal("a fresh build of the golden dataset differs from the checked-in corpus (format drift — bump arenaVersion and regenerate)")
	}
	var buf bytes.Buffer
	if err := got.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-saved corpus differs from checked-in bytes")
	}
	if !got.Describes(ds) {
		t.Fatal("the corpus does not describe the golden dataset")
	}
	lists := referenceLists(ds)
	for sym, want := range lists {
		if got.Freq(sym) != len(want) || !slices.Equal(got.AppendPostings(nil, sym), want) {
			t.Fatalf("postings of %d differ from the dataset's", sym)
		}
	}
}

// FuzzLoadCompact: arbitrary bytes fed to the loader must either load or
// error — never panic, hang, read out of bounds, or allocate unboundedly
// from corrupt counts. Arenas that do load must answer reads without
// panicking and survive a save/load round trip byte-identically.
func FuzzLoadCompact(f *testing.F) {
	valid := loadCompactCorpus(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SBTJCPT1"))             // magic only
	f.Add(valid[:64])                     // header only
	f.Add(valid[:len(valid)/2])           // truncated mid-section
	f.Add(append([]byte{}, valid[1:]...)) // shifted
	// Bit-flipped copies seed the header, section, and frame paths.
	for _, i := range []int{8, 12, 16, 40, 44, 64, len(valid) - 1} {
		if i < len(valid) {
			mut := append([]byte{}, valid...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := index.LoadCompact(data)
		if err != nil {
			return
		}
		// A validated arena must be fully readable.
		for _, sym := range c.Symbols() {
			if got := len(c.AppendPostings(nil, sym)); got != c.Freq(sym) {
				t.Fatalf("postings of %d: %d entries, Freq says %d", sym, got, c.Freq(sym))
			}
			if got := len(c.AppendPostingsInWindow(nil, sym, math.Inf(-1), math.Inf(1))); got != c.Freq(sym) {
				t.Fatalf("departure order of %d: %d entries, Freq says %d", sym, got, c.Freq(sym))
			}
		}
		for id := int32(0); id < int32(c.NumTrajectories()); id++ {
			c.Interval(id)
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("loaded arena does not save: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("save of loaded arena is not byte-identical")
		}
		if _, err := index.LoadCompact(buf.Bytes()); err != nil {
			t.Fatalf("saved copy of loaded arena does not load: %v", err)
		}
	})
}
