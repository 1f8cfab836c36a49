package index

import (
	"encoding/binary"
	"fmt"
)

// This file hosts the hardening helpers of the arena loader:
// bounds-checked section access and fixed-width reads that can never run
// past a slice. The loader treats every count and offset in the input as
// hostile until proven in range.

// checkSection verifies that [off, off+length) lies inside a buffer of
// `size` bytes, guarding against both overflow and out-of-range offsets.
func checkSection(what string, off, length, size uint64) error {
	if off > size || length > size || off+length > size {
		return fmt.Errorf("index: %s section [%d, %d+%d) outside file of %d bytes", what, off, off, length, size)
	}
	return nil
}

// u64At reads a little-endian integer with a bounds check; callers that
// already validated the section may use the raw binary.LittleEndian form
// on hot paths.
func u64At(data []byte, off int) (uint64, error) {
	if off < 0 || off+8 > len(data) {
		return 0, fmt.Errorf("index: u64 at %d past end of %d-byte buffer", off, len(data))
	}
	return binary.LittleEndian.Uint64(data[off:]), nil
}
