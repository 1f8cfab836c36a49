package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"

	"subtraj/internal/traj"
)

// This file is the arena: its layout, the loader that validates an
// untrusted copy, and the read surface queries use. The arena doubles as
// the on-disk format — Save writes it verbatim and OpenMapped maps a saved
// file back zero-copy, so a large index costs page-cache residency, not Go
// heap: the static, succinct direction of Kanda & Fujii's tSTAT applied to
// the paper's filter phase, which only ever scans postings sequentially
// per query symbol (§5).
//
// Layout (version 2, little-endian). The 64-byte header:
//
//	 0 magic "SBTJCPT1"     8 version u32         12 span u32
//	16 trajectories u64    24 symbols u64        32 postings u64
//	40 lowest symbol i32   44 CRC-32C u32        48 total size u64
//	56 dataset hash u64
//
// then five sections, contiguous, their sizes following from the counts:
//
//	intervals  trajectories × 16 B, by ID: f64 departure, f64 arrival
//	rank       trajectories × 12 B, in (departure, ID) order: f64
//	           departure, u32 ID
//	directory  span × 4 B: for the symbol lowest+i, its row + 1, or 0
//	rows       symbols × 24 B, ascending symbol: u32 symbol, u32 count,
//	           u64 offset of its ID-ordered list, u64 of its rank-ordered
//	lists      every ID-ordered list in row order, then every rank-ordered
//
// Freq is one directory read and one row read. A list is a skip table —
// per block of postings, u32 first key and u32 frame offset from the end
// of the table — then a frame per block: u8 key width, u8 position width,
// the block's key deltas (the first is 0) in a lane of that width, then
// its positions in theirs. A width is 0, 1, 2 or 4 bytes, the fewest the
// block's largest value needs, so a block decodes as two byte-aligned
// lanes. The key is the trajectory ID in an ID-ordered list, which is
// always read whole, in blocks of 128; it is the departure rank in a
// rank-ordered list, in blocks of 32, which a departure window reads by
// binary search over the departures of the blocks' first ranks, decoding
// at most one partial block at each end.
//
// The CRC covers every byte but its own. The hash fingerprints the
// trajectories the arena indexes (Describes).
const (
	arenaMagic   = "SBTJCPT1"
	arenaVersion = 2
	headerSize   = 64
	crcAt        = 44
	rowSize      = 24
	idBlock      = 128 // postings per block of an ID-ordered list
	rankBlock    = 32  // postings per block of a rank-ordered list
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)
	zeroCRC  [4]byte
)

func arenaChecksum(data []byte) uint32 {
	crc := crc32.Update(0, crcTable, data[:crcAt])
	crc = crc32.Update(crc, crcTable, zeroCRC[:])
	return crc32.Update(crc, crcTable, data[crcAt+4:])
}

// Compact is the index base: one frozen arena, immutable and safe for any
// number of concurrent readers. It is its own one posting source.
type Compact struct {
	data []byte

	numTraj, numSyms, numPostings int
	symLo, span                   uint32
	rankOff, dirOff, rowOff       int

	// closer unmaps the arena when it came from OpenMapped (nil for
	// heap arenas).
	closer func() error
}

var le = binary.LittleEndian

// wrap reads the header of an arena whose header is in range.
func wrap(data []byte) *Compact {
	c := &Compact{
		data:        data,
		span:        le.Uint32(data[12:]),
		numTraj:     int(le.Uint64(data[16:])),
		numSyms:     int(le.Uint64(data[24:])),
		numPostings: int(le.Uint64(data[32:])),
		symLo:       le.Uint32(data[40:]),
	}
	c.rankOff = headerSize + 16*c.numTraj
	c.dirOff = c.rankOff + 12*c.numTraj
	c.rowOff = c.dirOff + 4*int(c.span)
	return c
}

// --- loading and validation ----------------------------------------------

// LoadCompact validates an arena and wraps it without copying. The input
// is untrusted: the header, every section, directory slot, row, skip entry
// and frame is range-checked up front, in one sequential sweep, so reads
// at query time need no error paths — a validated arena can never make
// them read out of bounds. No count causes an allocation before the bytes
// that back it are known to be there.
func LoadCompact(data []byte) (*Compact, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("index: arena of %d bytes is shorter than its header", len(data))
	}
	if string(data[:8]) != arenaMagic {
		return nil, fmt.Errorf("index: bad arena magic %q", data[:8])
	}
	if v := le.Uint32(data[8:]); v != arenaVersion {
		return nil, fmt.Errorf("index: unsupported arena version %d (this build reads version %d; rebuild the index)", v, arenaVersion)
	}
	numTraj, numSyms, postings := le.Uint64(data[16:]), le.Uint64(data[24:]), le.Uint64(data[32:])
	if numTraj > math.MaxInt32 || numSyms > math.MaxInt32 || postings > math.MaxInt64/2 {
		return nil, fmt.Errorf("index: arena counts out of range (%d trajectories, %d symbols, %d postings)", numTraj, numSyms, postings)
	}
	if total := le.Uint64(data[48:]); total != uint64(len(data)) {
		return nil, fmt.Errorf("index: arena header claims %d bytes, file has %d", total, len(data))
	}
	if end := headerSize + 28*numTraj + 4*uint64(le.Uint32(data[12:])) + rowSize*numSyms; end > uint64(len(data)) {
		return nil, fmt.Errorf("index: arena sections end at %d, past the file's %d bytes", end, len(data))
	}
	if want, got := le.Uint32(data[crcAt:]), arenaChecksum(data); want != got {
		return nil, fmt.Errorf("index: arena checksum mismatch (header %08x, content %08x)", want, got)
	}
	c := wrap(data)
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate is the structural sweep over a checksummed arena: the rank
// section a permutation in departure order, the directory and
// the rows each other's inverse, the lists exactly tiling the rest of the
// arena, and every list decoding cleanly to in-range keys with (key,
// position) strictly increasing.
func (c *Compact) validate() error {
	seen := make([]bool, c.numTraj)
	prev := math.Inf(-1)
	for r := 0; r < c.numTraj; r++ {
		id := c.idAtRank(r)
		if uint32(id) >= uint32(c.numTraj) || seen[id] {
			return fmt.Errorf("index: rank section is not a permutation (rank %d → trajectory %d)", r, uint32(id))
		}
		seen[id] = true
		d, _ := c.Interval(id)
		if !(d >= prev) || d != c.depAtRank(r) { // NaN fails too: the window search needs an order
			return fmt.Errorf("index: departure at rank %d out of order or not trajectory %d's", r, id)
		}
		prev = d
	}
	for k := uint32(0); k < c.span; k++ {
		if v := le.Uint32(c.data[c.dirOff+4*int(k):]); v != 0 && (v > uint32(c.numSyms) || uint32(c.sym(int(v)-1))-c.symLo != k) {
			return fmt.Errorf("index: directory slot %d names row %d of %d", k, v, c.numSyms)
		}
	}
	postings := 0
	for i := 0; i < c.numSyms; i++ {
		if i > 0 && c.sym(i) <= c.sym(i-1) {
			return fmt.Errorf("index: rows not in ascending symbol order at row %d", i)
		}
		if c.row(c.sym(i)) != i {
			return fmt.Errorf("index: row %d (symbol %d) missing from the directory", i, c.sym(i))
		}
		postings += c.count(i)
	}
	if postings != c.numPostings {
		return fmt.Errorf("index: rows count %d postings, header claims %d", postings, c.numPostings)
	}
	at := c.rowOff + rowSize*c.numSyms
	scratch := make([]Posting, 0, idBlock)
	for _, l := range [...]struct{ field, block int }{{8, idBlock}, {16, rankBlock}} {
		for i := 0; i < c.numSyms; i++ {
			if off := le.Uint64(c.data[c.rowOff+rowSize*i+l.field:]); off != uint64(at) {
				return fmt.Errorf("index: symbol %d list at %d, expected %d (lists not contiguous)", c.sym(i), off, at)
			}
			var err error
			if at, err = c.sweep(at, c.count(i), l.block, scratch); err != nil {
				return fmt.Errorf("index: symbol %d: %w", c.sym(i), err)
			}
		}
	}
	if at != len(c.data) {
		return fmt.Errorf("index: %d trailing bytes after the last list", len(c.data)-at)
	}
	return nil
}

// sweep checks the list of count postings in blocks of block at offset at
// and returns where it ends.
func (c *Compact) sweep(at, count, block int, scratch []Posting) (int, error) {
	nb := (count + block - 1) / block
	frames := at + 8*nb
	if frames > len(c.data) {
		return 0, fmt.Errorf("skip table runs past the end")
	}
	pos, prev := frames, Posting{ID: -1}
	for b := 0; b < nb; b++ {
		if rel := le.Uint32(c.data[at+8*b+4:]); frames+int(rel) != pos {
			return 0, fmt.Errorf("skip entry %d points at %d, block starts at %d", b, rel, pos-frames)
		}
		n := min(block, count-b*block)
		if pos+2 > len(c.data) {
			return 0, fmt.Errorf("block %d frame header past the end", b)
		}
		kw, pw := int(c.data[pos]), int(c.data[pos+1])
		if kw > 4 || kw == 3 || pw > 4 || pw == 3 {
			return 0, fmt.Errorf("block %d lane widths (%d, %d)", b, kw, pw)
		}
		if pos+2+n*(kw+pw) > len(c.data) {
			return 0, fmt.Errorf("block %d runs past the end", b)
		}
		first := le.Uint32(c.data[at+8*b:])
		scratch, pos = appendFrame(scratch[:0], c.data, pos, first, n)
		if uint32(scratch[0].ID) != first {
			return 0, fmt.Errorf("block %d: first key delta is not 0", b)
		}
		for _, q := range scratch {
			if uint32(q.ID) >= uint32(c.numTraj) || q.Pos < 0 {
				return 0, fmt.Errorf("posting (%d, %d) out of range", uint32(q.ID), uint32(q.Pos))
			}
			if q.ID < prev.ID || q.ID == prev.ID && q.Pos <= prev.Pos {
				return 0, fmt.Errorf("(key, position) not increasing at (%d, %d)", q.ID, q.Pos)
			}
			prev = q
		}
	}
	return pos, nil
}

// --- persistence ----------------------------------------------------------

// Save writes the arena verbatim: the on-disk format is the in-memory
// layout, so save/load round trips are byte-identical by construction.
func (c *Compact) Save(w io.Writer) error {
	_, err := w.Write(c.data)
	return err
}

// Bytes exposes the arena (read-only; shared with any mapping).
func (c *Compact) Bytes() []byte { return c.data }

// Close releases the mapping of an arena opened by OpenMapped; it is a
// no-op for heap arenas. The Compact must not be used after Close.
func (c *Compact) Close() error {
	if c.closer == nil {
		return nil
	}
	f := c.closer
	c.closer = nil
	c.data = nil
	return f()
}

// Describes reports whether c indexes the first NumTrajectories()
// trajectories of ds, by the dataset hash Build wrote into the header: an
// arena built over another dataset with as many trajectories fails it.
func (c *Compact) Describes(ds *traj.Dataset) bool {
	if ds.Len() < c.numTraj {
		return false
	}
	var h uint64
	for id := range ds.Trajs[:c.numTraj] {
		h += trajHash(id, &ds.Trajs[id])
	}
	return h == le.Uint64(c.data[56:])
}

// --- read surface ---------------------------------------------------------

// NumTrajectories returns the number of indexed trajectories: IDs
// [0, NumTrajectories) are answered by this arena.
func (c *Compact) NumTrajectories() int { return c.numTraj }

// NumPostings returns the total posting count.
func (c *Compact) NumPostings() int { return c.numPostings }

// IndexBytes returns the arena size: the index's whole footprint.
func (c *Compact) IndexBytes() int64 { return int64(len(c.data)) }

// NumShards: a base is one posting source.
func (c *Compact) NumShards() int { return 1 }

// Source returns the arena itself.
func (c *Compact) Source(int) PostingSource { return c }

func (c *Compact) sym(i int) traj.Symbol { return traj.Symbol(le.Uint32(c.data[c.rowOff+rowSize*i:])) }

func (c *Compact) count(i int) int { return int(le.Uint32(c.data[c.rowOff+rowSize*i+4:])) }

// row returns q's row, or -1 when q has no postings.
func (c *Compact) row(q traj.Symbol) int {
	k := uint32(q) - c.symLo
	if k >= c.span {
		return -1
	}
	return int(le.Uint32(c.data[c.dirOff+4*int(k):])) - 1
}

// Freq returns n(q) from q's row, decoding nothing.
func (c *Compact) Freq(q traj.Symbol) int {
	if i := c.row(q); i >= 0 {
		return c.count(i)
	}
	return 0
}

// Symbols returns every indexed symbol in ascending order (a test and
// tooling surface; allocates).
func (c *Compact) Symbols() []traj.Symbol {
	out := make([]traj.Symbol, c.numSyms)
	for i := range out {
		out[i] = c.sym(i)
	}
	return out
}

// AppendPostings appends L_q, in (ID, position) order, to dst.
func (c *Compact) AppendPostings(dst []Posting, q traj.Symbol) []Posting {
	i := c.row(q)
	if i < 0 {
		return dst
	}
	count, at := c.count(i), int(le.Uint64(c.data[c.rowOff+rowSize*i+8:]))
	nb := (count + idBlock - 1) / idBlock
	pos := at + 8*nb
	for b := 0; b < nb; b++ {
		dst, pos = appendFrame(dst, c.data, pos, le.Uint32(c.data[at+8*b:]), min(idBlock, count-b*idBlock))
	}
	return dst
}

// AppendPostingsInWindow appends to dst the postings of q whose
// trajectory departs in [lo, hi], in (departure, ID, position) order.
//
// The window is over departure times: a trajectory that departs before lo
// but is still driving inside the window is not returned, so callers use
// this only for constraints of the form T_1 ∈ I; the overlap constraint
// uses AppendPostings plus IntervalOverlaps.
func (c *Compact) AppendPostingsInWindow(dst []Posting, q traj.Symbol, lo, hi float64) []Posting {
	i := c.row(q)
	if i < 0 {
		return dst
	}
	count, at := c.count(i), int(le.Uint64(c.data[c.rowOff+rowSize*i+16:]))
	nb := (count + rankBlock - 1) / rankBlock
	firstDep := func(b int) float64 { return c.depAtRank(int(le.Uint32(c.data[at+8*b:]))) }
	// Start at the block before the first that departs at or after lo: the
	// window may begin at that block's tail, and every block before it
	// departs before lo.
	b := max(0, sort.Search(nb, func(b int) bool { return firstDep(b) >= lo })-1)
	for ; b < nb && firstDep(b) <= hi; b++ {
		from := len(dst)
		dst, _ = appendFrame(dst, c.data, at+8*nb+int(le.Uint32(c.data[at+8*b+4:])), le.Uint32(c.data[at+8*b:]), min(rankBlock, count-b*rankBlock))
		kept := dst[:from]
		for _, p := range dst[from:] {
			if d := c.depAtRank(int(p.ID)); d >= lo && d <= hi {
				kept = append(kept, Posting{ID: c.idAtRank(int(p.ID)), Pos: p.Pos})
			}
		}
		dst = kept
	}
	return dst
}

// appendFrame appends the n postings of the frame at data[at:] to dst,
// their keys — first plus the running delta sum — in the ID field, and
// returns where the next frame starts.
func appendFrame(dst []Posting, data []byte, at int, first uint32, n int) ([]Posting, int) {
	kw, pw := int(data[at]), int(data[at+1])
	keys := data[at+2 : at+2+n*kw]
	poss := data[at+2+n*kw : at+2+n*(kw+pw)]
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	key := first
	// Nearly every block of a road-network dataset has one-byte positions
	// and one- or two-byte key deltas (99.99% of the benchmark city's
	// postings): those get a loop each, its lanes resliced to out's length
	// so it runs without bounds checks; the rest read through laneAt.
	switch {
	case kw == 1 && pw == 1:
		keys, poss = keys[:len(out)], poss[:len(out)]
		for i := range out {
			key += uint32(keys[i])
			out[i] = Posting{ID: int32(key), Pos: int32(poss[i])}
		}
	case kw == 2 && pw == 1:
		poss = poss[:len(out)]
		for i := range out {
			k := keys[2*i : 2*i+2]
			key += uint32(k[0]) | uint32(k[1])<<8
			out[i] = Posting{ID: int32(key), Pos: int32(poss[i])}
		}
	default:
		for i := range out {
			key += laneAt(keys, i, kw)
			out[i] = Posting{ID: int32(key), Pos: int32(laneAt(poss, i, pw))}
		}
	}
	return dst[:len(dst)+n], at + 2 + n*(kw+pw)
}

// laneAt reads the i-th value of a lane w bytes wide.
func laneAt(lane []byte, i, w int) uint32 {
	switch w {
	case 1:
		return uint32(lane[i])
	case 2:
		return uint32(le.Uint16(lane[2*i:]))
	case 4:
		return le.Uint32(lane[4*i:])
	}
	return 0
}

// Interval returns trajectory id's [departure, arrival] span.
func (c *Compact) Interval(id int32) (lo, hi float64) {
	off := headerSize + 16*int(id)
	return math.Float64frombits(le.Uint64(c.data[off:])), math.Float64frombits(le.Uint64(c.data[off+8:]))
}

// IntervalOverlaps reports whether trajectory id's [departure, arrival]
// interval intersects [lo, hi] — the candidate-level prune of §4.3.
func (c *Compact) IntervalOverlaps(id int32, lo, hi float64) bool {
	dep, arr := c.Interval(id)
	return dep <= hi && arr >= lo
}

func (c *Compact) depAtRank(r int) float64 {
	return math.Float64frombits(le.Uint64(c.data[c.rankOff+12*r:]))
}

func (c *Compact) idAtRank(r int) int32 { return int32(le.Uint32(c.data[c.rankOff+12*r+8:])) }
