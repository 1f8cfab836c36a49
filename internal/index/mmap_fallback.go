package index

import (
	"fmt"
	"os"
)

// openReadFile is the portable OpenMapped implementation: read the whole
// arena into memory and validate it. The API contract is identical to
// the mapped path (including Close being required); only the zero-copy
// property is lost — the arena lives on the Go heap instead of the page
// cache.
func openReadFile(path string) (*Compact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := LoadCompact(data)
	if err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	return c, nil
}
