package index_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"subtraj/internal/index"
	"subtraj/internal/testutil"
)

// loadCompactCorpus reads the checked-in compact-arena corpus (the golden
// dataset frozen by Freeze and written by Save).
func loadCompactCorpus(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_compact.bin")
	if err != nil {
		t.Fatalf("compact seed corpus missing: %v", err)
	}
	return data
}

// TestGoldenCompactCorpusLoads pins the compact on-disk format: the
// checked-in arena must keep loading, must equal a fresh freeze of the
// golden dataset byte for byte (Freeze is deterministic), and must
// re-save byte-identically. Any format change that breaks old files
// breaks this test first.
func TestGoldenCompactCorpusLoads(t *testing.T) {
	data := loadCompactCorpus(t)
	got, err := index.LoadCompact(data)
	if err != nil {
		t.Fatalf("corpus does not load: %v", err)
	}
	fresh := index.FreezeDataset(testutil.GoldenDataset())
	if !bytes.Equal(fresh.Bytes(), data) {
		t.Fatal("fresh freeze of the golden dataset differs from the checked-in corpus (format drift — bump compactVersion and regenerate)")
	}
	var buf bytes.Buffer
	if err := got.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("re-saved corpus differs from checked-in bytes")
	}
	// And the loaded arena answers like a pointer index over the dataset.
	inv := index.Build(testutil.GoldenDataset())
	src := got.Source(0)
	defer index.ReleaseSource(src)
	for _, p := range testutil.GoldenPaths() {
		for _, sym := range p {
			if got.Freq(sym) != inv.Freq(sym) {
				t.Fatalf("Freq(%d) = %d, want %d", sym, got.Freq(sym), inv.Freq(sym))
			}
			if !reflect.DeepEqual(append([]index.Posting(nil), src.Postings(sym)...), inv.Postings(sym)) {
				t.Fatalf("Postings(%d) differ", sym)
			}
		}
	}
}

// FuzzLoadCompact: arbitrary bytes fed to the compact loader must either
// load or error — never panic, hang, read out of bounds, or allocate
// unboundedly from corrupt counts. Arenas that do load must answer reads
// without panicking and survive a save/load round trip byte-identically.
func FuzzLoadCompact(f *testing.F) {
	valid := loadCompactCorpus(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SBTJCPT1"))      // magic only
	f.Add(valid[:96])              // header only
	f.Add(valid[:len(valid)/2])    // truncated mid-section
	f.Add(append([]byte{}, valid[1:]...)) // shifted
	// Bit-flipped copies seed the header, section, and frame paths.
	for _, i := range []int{8, 12, 16, 40, 80, 96, len(valid) - 1} {
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
		src := c.Source(0)
		for _, sym := range c.Symbols() {
			if got := len(src.Postings(sym)); got != c.Freq(sym) {
				t.Fatalf("Postings(%d) has %d entries, Freq says %d", sym, got, c.Freq(sym))
			}
			src.PostingsInWindow(sym, 0, 1e18)
		}
		index.ReleaseSource(src)
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
