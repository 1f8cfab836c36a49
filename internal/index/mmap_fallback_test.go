package index_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subtraj/internal/index"
)

// TestOpenMappedReadFileFallback pins the portable read-file path that
// non-unix platforms always use: SUBTRAJ_MMAP=off routes unix builds
// onto it, so CI exercises the fallback against the golden compact
// corpus and proves it answers identically to the mapped arena.
func TestOpenMappedReadFileFallback(t *testing.T) {
	const golden = "testdata/golden_compact.bin"
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	mapped, err := index.OpenMapped(golden)
	if err != nil {
		t.Fatalf("OpenMapped (default): %v", err)
	}
	defer mapped.Close()

	t.Setenv("SUBTRAJ_MMAP", "off")
	fb, err := index.OpenMapped(golden)
	if err != nil {
		t.Fatalf("OpenMapped (fallback): %v", err)
	}

	if !bytes.Equal(fb.Bytes(), raw) {
		t.Fatal("fallback arena differs from the file bytes")
	}
	if !bytes.Equal(fb.Bytes(), mapped.Bytes()) {
		t.Fatal("fallback arena differs from the mapped arena")
	}
	if fb.NumTrajectories() != mapped.NumTrajectories() ||
		fb.NumSymbols() != mapped.NumSymbols() ||
		fb.NumPostings() != mapped.NumPostings() {
		t.Fatalf("fallback shape (%d traj, %d syms, %d postings) != mapped (%d, %d, %d)",
			fb.NumTrajectories(), fb.NumSymbols(), fb.NumPostings(),
			mapped.NumTrajectories(), mapped.NumSymbols(), mapped.NumPostings())
	}
	a, b := mapped.Source(0), fb.Source(0)
	for _, sym := range mapped.Symbols() {
		if got, want := collect(b.Postings(sym)), collect(a.Postings(sym)); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback Postings(%d) differ from mapped", sym)
		}
	}
	index.ReleaseSource(a)
	index.ReleaseSource(b)

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
	if _, err := index.OpenMapped(trunc); err == nil {
		t.Fatal("fallback accepted a truncated file")
	}
	if _, err := index.OpenMapped(filepath.Join(t.TempDir(), "missing.sbtj")); err == nil {
		t.Fatal("fallback accepted a missing file")
	}
}
