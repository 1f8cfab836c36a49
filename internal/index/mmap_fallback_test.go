package index_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subtraj/internal/index"
)

// TestOpenMappedReadFileFallback pins the portable read-file path that
// non-unix platforms always use: unix builds reach it through the test
// export, against the golden corpus, and it must answer identically to
// the mapped arena.
func TestOpenMappedReadFileFallback(t *testing.T) {
	const golden = "testdata/golden_compact.bin"
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	mapped, err := index.OpenMapped(golden)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()

	fb, err := index.OpenReadFile(golden)
	if err != nil {
		t.Fatalf("read-file fallback: %v", err)
	}
	if !bytes.Equal(fb.Bytes(), raw) {
		t.Fatal("fallback arena differs from the file bytes")
	}
	if !bytes.Equal(fb.Bytes(), mapped.Bytes()) {
		t.Fatal("fallback arena differs from the mapped arena")
	}
	if fb.NumTrajectories() != mapped.NumTrajectories() || fb.NumPostings() != mapped.NumPostings() ||
		!slices.Equal(fb.Symbols(), mapped.Symbols()) {
		t.Fatal("fallback arena's shape differs from the mapped arena's")
	}
	for _, sym := range mapped.Symbols() {
		if !slices.Equal(fb.AppendPostings(nil, sym), mapped.AppendPostings(nil, sym)) {
			t.Fatalf("fallback postings of %d differ from mapped", sym)
		}
	}

	// The fallback arena is heap-backed: Close must still be safe (and
	// idempotent), it just has nothing to unmap.
	if err := fb.Close(); err != nil {
		t.Fatalf("fallback Close: %v", err)
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("fallback second Close: %v", err)
	}

	// Validation must hold on this path too: a truncated copy is
	// rejected at open, never inside a query.
	trunc := filepath.Join(t.TempDir(), "trunc.sbtj")
	if err := os.WriteFile(trunc, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := index.OpenReadFile(trunc); err == nil {
		t.Fatal("fallback accepted a truncated file")
	}
	if _, err := index.OpenReadFile(filepath.Join(t.TempDir(), "missing.sbtj")); err == nil {
		t.Fatal("fallback accepted a missing file")
	}
}
