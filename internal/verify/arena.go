package verify

// slabCells is the size of one arena slab in float64 cells (256 KiB):
// large enough that a slab switch is rare next to the DP work that fills
// one, small enough that a verifier serving short queries pins little.
const slabCells = 32 << 10

// arena is a bump allocator of float64 runs over fixed-size slabs: the
// storage of the compiled cost rows (rows.go). Slabs are pointer-free and
// never move or regrow, so a run handed out stays valid until the arena
// is reset, and filling the arena never copies what is already there. A
// slab is at least eight times the request that opens it, so the tail a
// too-wide request skips stays a small share of any slab even for
// requests that dwarf slabCells.
type arena struct {
	slabs [][]float64
	// (cur, off) is the bump pointer: the next free cell is
	// slabs[cur][off]. cur == len(slabs) only while there is no slab at all.
	cur, off int
}

// alloc returns n cells at the arena tail.
func (a *arena) alloc(n int) []float64 {
	if a.cur == len(a.slabs) || a.off+n > len(a.slabs[a.cur]) {
		a.nextSlab(n)
	}
	buf := a.slabs[a.cur][a.off : a.off+n : a.off+n]
	a.off += n
	return buf
}

// nextSlab moves the bump pointer to the start of a slab with room for n
// cells, reusing a retained slab when it is large enough.
func (a *arena) nextSlab(n int) {
	if a.cur < len(a.slabs) {
		a.cur++ // the current slab's remainder is too small: skip it
	}
	a.off = 0
	switch {
	case a.cur == len(a.slabs):
		a.slabs = append(a.slabs, make([]float64, max(slabCells, 8*n)))
	case len(a.slabs[a.cur]) < n:
		a.slabs[a.cur] = make([]float64, 8*n) // a retained slab too small for this query
	}
}

// reset frees every run, keeping the slabs.
func (a *arena) reset() { a.cur, a.off = 0, 0 }

// bytes returns the footprint of the slabs held, used or not.
func (a *arena) bytes() int64 {
	var cells int64
	for _, s := range a.slabs {
		cells += int64(len(s))
	}
	return cells * 8
}

// trim frees every run and drops trailing slabs until at most budget
// bytes are held.
func (a *arena) trim(budget int64) {
	a.reset()
	held := a.bytes()
	for n := len(a.slabs); n > 0 && held > budget; n-- {
		held -= int64(len(a.slabs[n-1])) * 8
		a.slabs[n-1] = nil
		a.slabs = a.slabs[:n-1]
	}
}
