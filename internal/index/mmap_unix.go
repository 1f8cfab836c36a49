//go:build unix

package index

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// OpenMapped maps an arena written by Compact.Save into memory
// zero-copy: the returned Compact reads straight from the page cache, so
// a multi-gigabyte index costs file-backed pages (shared across
// processes, evictable under pressure), not Go heap. The arena is fully
// validated before use — see LoadCompact — so a corrupt, truncated or
// older-version file fails here, never inside a query. Close unmaps.
func OpenMapped(path string) (*Compact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("index: %s: %d bytes is shorter than an arena header", path, size)
	}
	if uint64(size) > uint64(math.MaxInt) {
		return nil, fmt.Errorf("index: %s: %d bytes exceeds the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("index: mmap %s: %w", path, err)
	}
	c, err := LoadCompact(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	c.closer = func() error { return syscall.Munmap(data) }
	return c, nil
}
