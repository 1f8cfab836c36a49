package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"subtraj/internal/traj"
)

// This file implements the memory-optimal index backend: Compact, a frozen
// snapshot of an Inverted index laid out in one flat byte arena. Posting
// lists are delta-encoded into per-block bit-packed frames behind
// fixed-width skip blocks and decode lazily into pooled scratch;
// trajectory intervals, the departure-rank
// permutation, and the symbol table are fixed-width sections of the same
// arena. The arena doubles as the on-disk format: Save writes it verbatim
// and OpenMapped maps a saved file back zero-copy, so a multi-gigabyte
// index costs page-cache residency, not Go heap — the succinct-index
// direction of Kanda & Fujii's tSTAT applied to the paper's filter phase,
// which only ever scans postings sequentially per query symbol (§5) and
// therefore loses nothing to the compressed layout.
//
// Arena layout (version 1, all integers little-endian):
//
//	header   96 B: magic, version, block size, counts, section offsets,
//	         total size, CRC-32C of everything after the header
//	intervals numTraj × 16 B: float64 departure, float64 arrival bits
//	rank      numTraj × 4 B: trajectory ID at each departure rank
//	          (stable (departure, ID) order — identical to the order
//	          Inverted.BuildTemporal sorts every list into)
//	symtab    numSyms × 24 B, ascending symbol: u32 sym, u32 count,
//	          u64 listOff, u32 listLen, u32 tempLen
//	blob      the encoded lists, contiguous in symtab order; each symbol
//	          stores its ID-ordered main list then its rank-ordered
//	          temporal list
//
// Encoded list: ceil(count/blockSize) skip entries (u32 firstKey, u32
// data offset relative to the end of the skip table), then per block a
// bit-packed frame: u8 key-delta width, u8 position width, the block's
// key deltas packed LSB-first at the key width, then its positions at the
// position width. Each block pays for its own outliers only, so dense
// lists cost ~1–2 bytes per posting where fixed varints would floor at 2.
// The main list's key is the trajectory ID; the temporal list's key is
// the departure rank, so a PostingsInWindow call binary-searches the
// global rank order once, binary-searches the skip table, and decodes
// only the covering blocks.
const (
	compactMagic      = "SBTJCPT1"
	compactVersion    = 1
	compactHeaderSize = 96
	// compactBlockSize is the postings-per-skip-block granularity written
	// by Freeze: windowed reads decode at most one partial block on each
	// end, and a block of 128 bit-packed pairs stays well inside one page.
	compactBlockSize = 128
	// maxRetainedPostings caps the scratch a pooled source keeps between
	// queries, so one huge postings list cannot pin memory forever (the
	// verify.Put convention).
	maxRetainedPostings = 1 << 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// compactChecksum covers the whole arena — header included, with the
// checksum field itself read as zero — so any single corrupted byte
// (counts, offsets, block size, postings) fails verification; the
// reserved header bytes are additionally required to be zero by the
// loader.
func compactChecksum(data []byte) uint32 {
	crc := crc32.Update(0, crcTable, data[:80])
	crc = crc32.Update(crc, crcTable, []byte{0, 0, 0, 0})
	return crc32.Update(crc, crcTable, data[84:])
}

// Compact is the frozen, memory-optimal index backend. It is immutable
// and safe for any number of concurrent readers — a base like Inverted,
// one posting source; trajectories that arrive later are indexed by a
// DeltaMap on top of it.
type Compact struct {
	data []byte

	numTraj     int
	numSyms     int
	numPostings int
	blockSize   int

	intervalsOff int
	rankOff      int
	symTabOff    int
	blobOff      int

	// closer unmaps the arena when it came from OpenMapped (nil for
	// heap-built arenas).
	closer func() error
}

// compactEntry is one parsed symbol-table row.
type compactEntry struct {
	sym     traj.Symbol
	count   int
	listOff int
	listLen int
	tempLen int
}

// --- freezing ------------------------------------------------------------

// Freeze builds a Compact arena from an Inverted index. The input is not
// modified and may be discarded afterwards; the result answers the same
// postings, frequency, interval, and temporal-window queries bit-equally.
func Freeze(inv *Inverted) *Compact {
	n := len(inv.departures)
	syms := make([]traj.Symbol, 0, len(inv.lists))
	for s := range inv.lists {
		syms = append(syms, s)
	}
	slices.Sort(syms)

	// Departure-rank permutation: stable sort of IDs by departure time.
	// Starting from ascending IDs, stability makes this the (departure,
	// ID) order — exactly how sortByDeparture orders every temporal list.
	idByRank := make([]int32, n)
	for i := range idByRank {
		idByRank[i] = int32(i)
	}
	sort.SliceStable(idByRank, func(i, j int) bool {
		return inv.departures[idByRank[i]] < inv.departures[idByRank[j]]
	})
	rankOf := make([]int32, n)
	for r, id := range idByRank {
		rankOf[id] = int32(r)
	}

	intervalsOff := compactHeaderSize
	rankOff := intervalsOff + n*16
	symTabOff := alignUp8(rankOff + n*4)
	blobOff := symTabOff + len(syms)*24

	var blob bytes.Buffer
	symTab := make([]byte, len(syms)*24)
	tempScratch := make([]Posting, 0, 1024)
	for i, sym := range syms {
		list := inv.lists[sym]
		listBytes := encodePostings(list, nil)
		// Temporal twin: the same postings stably re-sorted by departure
		// rank (ties keep (ID, pos) order, matching BuildTemporal).
		tempScratch = append(tempScratch[:0], list...)
		slices.SortStableFunc(tempScratch, func(a, b Posting) int {
			return int(rankOf[a.ID]) - int(rankOf[b.ID])
		})
		tempBytes := encodePostings(tempScratch, rankOf)
		if len(listBytes) > math.MaxUint32 || len(tempBytes) > math.MaxUint32 {
			panic("index: single postings list exceeds 4 GiB encoded")
		}
		e := symTab[i*24:]
		binary.LittleEndian.PutUint32(e[0:], uint32(sym))
		binary.LittleEndian.PutUint32(e[4:], uint32(len(list)))
		binary.LittleEndian.PutUint64(e[8:], uint64(blobOff+blob.Len()))
		binary.LittleEndian.PutUint32(e[16:], uint32(len(listBytes)))
		binary.LittleEndian.PutUint32(e[20:], uint32(len(tempBytes)))
		blob.Write(listBytes)
		blob.Write(tempBytes)
	}

	total := blobOff + blob.Len()
	data := make([]byte, total)
	h := data[:compactHeaderSize]
	copy(h[0:8], compactMagic)
	binary.LittleEndian.PutUint32(h[8:], compactVersion)
	binary.LittleEndian.PutUint32(h[12:], compactBlockSize)
	binary.LittleEndian.PutUint64(h[16:], uint64(n))
	binary.LittleEndian.PutUint64(h[24:], uint64(len(syms)))
	binary.LittleEndian.PutUint64(h[32:], uint64(inv.numPostings))
	binary.LittleEndian.PutUint64(h[40:], uint64(intervalsOff))
	binary.LittleEndian.PutUint64(h[48:], uint64(rankOff))
	binary.LittleEndian.PutUint64(h[56:], uint64(symTabOff))
	binary.LittleEndian.PutUint64(h[64:], uint64(blobOff))
	binary.LittleEndian.PutUint64(h[72:], uint64(total))
	for id := 0; id < n; id++ {
		off := intervalsOff + id*16
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(inv.departures[id]))
		binary.LittleEndian.PutUint64(data[off+8:], math.Float64bits(inv.arrivals[id]))
	}
	for r, id := range idByRank {
		binary.LittleEndian.PutUint32(data[rankOff+r*4:], uint32(id))
	}
	copy(data[symTabOff:], symTab)
	copy(data[blobOff:], blob.Bytes())
	binary.LittleEndian.PutUint32(h[80:], compactChecksum(data))

	c, err := LoadCompact(data)
	if err != nil {
		// Freeze writes the canonical layout; failing its own loader is a
		// bug, not an input condition.
		panic(fmt.Sprintf("index: frozen arena does not validate: %v", err))
	}
	return c
}

// FreezeDataset is Build + Freeze: the one-step constructor for callers
// that never need the intermediate pointer-rich index.
func FreezeDataset(ds *traj.Dataset) *Compact {
	return Freeze(Build(ds))
}

// encodePostings writes one skip-blocked bit-packed list. The key is
// the trajectory ID when rankOf is nil, else the ID's departure rank;
// keys must be non-decreasing in list order (the caller sorts). Each
// block's key deltas and positions are packed at the minimal bit width
// their block needs (an outlier widens only its own block).
func encodePostings(list []Posting, rankOf []int32) []byte {
	if len(list) == 0 {
		return nil
	}
	key := func(p Posting) uint32 {
		if rankOf == nil {
			return uint32(p.ID)
		}
		return uint32(rankOf[p.ID])
	}
	numBlocks := (len(list) + compactBlockSize - 1) / compactBlockSize
	skip := make([]byte, numBlocks*8)
	var data []byte
	deltas := make([]uint32, 0, compactBlockSize)
	poss := make([]uint32, 0, compactBlockSize)
	for b := 0; b < numBlocks; b++ {
		start := b * compactBlockSize
		end := min(start+compactBlockSize, len(list))
		first := key(list[start])
		binary.LittleEndian.PutUint32(skip[b*8:], first)
		binary.LittleEndian.PutUint32(skip[b*8+4:], uint32(len(data)))
		prev := first
		deltas, poss = deltas[:0], poss[:0]
		var orD, orP uint32 // bits.Len(a|b) == max(bits.Len(a), bits.Len(b))
		for _, p := range list[start:end] {
			k := key(p)
			deltas = append(deltas, k-prev)
			poss = append(poss, uint32(p.Pos))
			orD |= k - prev
			orP |= uint32(p.Pos)
			prev = k
		}
		kb, pb := bits.Len32(orD), bits.Len32(orP)
		data = append(data, byte(kb), byte(pb))
		data = packBits(data, deltas, kb)
		data = packBits(data, poss, pb)
	}
	return append(skip, data...)
}

// packBits appends vals to dst LSB-first at the given width (0 = all
// values are zero, nothing written).
func packBits(dst []byte, vals []uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	var nbits int
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += width
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// bitsAt extracts the width-bit value at bit offset bitPos of data
// (LSB-first, width ≤ 32). Reads stay inside data.
func bitsAt(data []byte, bitPos, width int) uint32 {
	if width == 0 {
		return 0
	}
	idx := bitPos >> 3
	shift := uint(bitPos & 7)
	var raw uint64
	if len(data)-idx >= 8 {
		raw = binary.LittleEndian.Uint64(data[idx:])
	} else {
		for k, b := range data[idx:] {
			raw |= uint64(b) << (8 * uint(k))
		}
	}
	return uint32(raw >> shift & (1<<uint(width) - 1))
}

func alignUp8(x int) int { return (x + 7) &^ 7 }

// --- loading and validation ----------------------------------------------

// LoadCompact validates a compact arena and wraps it without copying. The
// input is untrusted: every section offset, count, skip entry, and frame
// is range-checked up front (one sequential decode sweep), so query-time
// reads can run without error paths — a validated arena can never make
// Postings or PostingsInWindow read out of bounds. Counts never cause
// an allocation before bytes back them.
func LoadCompact(data []byte) (*Compact, error) {
	size := uint64(len(data))
	if len(data) < compactHeaderSize {
		return nil, fmt.Errorf("index: compact arena of %d bytes shorter than header", len(data))
	}
	if string(data[0:8]) != compactMagic {
		return nil, fmt.Errorf("index: bad compact magic %q", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != compactVersion {
		return nil, fmt.Errorf("index: unsupported compact version %d", v)
	}
	blockSize := binary.LittleEndian.Uint32(data[12:])
	if blockSize < 1 || blockSize > 1<<16 {
		return nil, fmt.Errorf("index: compact block size %d out of range", blockSize)
	}
	numTraj := binary.LittleEndian.Uint64(data[16:])
	numSyms := binary.LittleEndian.Uint64(data[24:])
	numPostings := binary.LittleEndian.Uint64(data[32:])
	if numTraj > math.MaxInt32 || numSyms > math.MaxInt32 || numPostings > math.MaxInt64/2 {
		return nil, fmt.Errorf("index: compact counts out of range (%d trajectories, %d symbols, %d postings)", numTraj, numSyms, numPostings)
	}
	intervalsOff := binary.LittleEndian.Uint64(data[40:])
	rankOff := binary.LittleEndian.Uint64(data[48:])
	symTabOff := binary.LittleEndian.Uint64(data[56:])
	blobOff := binary.LittleEndian.Uint64(data[64:])
	total := binary.LittleEndian.Uint64(data[72:])
	if total != size {
		return nil, fmt.Errorf("index: compact header claims %d bytes, file has %d", total, size)
	}
	// The layout is canonical: sections are exactly contiguous in header
	// order. Rejecting every other arrangement removes aliased-section
	// inputs (offsets pointing into each other) outright.
	if intervalsOff != compactHeaderSize ||
		rankOff != intervalsOff+numTraj*16 ||
		symTabOff != uint64(alignUp8(int(rankOff+numTraj*4))) ||
		blobOff != symTabOff+numSyms*24 {
		return nil, fmt.Errorf("index: compact sections not in canonical layout")
	}
	if err := checkSection("blob", blobOff, total-blobOff, size); err != nil {
		return nil, err
	}
	for _, b := range data[84:compactHeaderSize] {
		if b != 0 {
			return nil, fmt.Errorf("index: nonzero reserved header bytes")
		}
	}
	if want, got := binary.LittleEndian.Uint32(data[80:]), compactChecksum(data); want != got {
		return nil, fmt.Errorf("index: compact checksum mismatch (header %08x, content %08x)", want, got)
	}

	c := &Compact{
		data:         data,
		numTraj:      int(numTraj),
		numSyms:      int(numSyms),
		numPostings:  int(numPostings),
		blockSize:    int(blockSize),
		intervalsOff: int(intervalsOff),
		rankOff:      int(rankOff),
		symTabOff:    int(symTabOff),
		blobOff:      int(blobOff),
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate is the one-pass structural sweep over a checksummed arena:
// the rank section must be a permutation with non-decreasing departures,
// the symbol table strictly ascending and exactly tiling the blob region,
// and every encoded list must decode cleanly with in-range, properly
// ordered keys and skip entries that match the data they index.
func (c *Compact) validate() error {
	// Departure order: dep(rank r) non-decreasing, no NaNs (binary search
	// over the rank order requires monotonicity).
	seen := make([]bool, c.numTraj)
	prev := math.Inf(-1)
	for r := 0; r < c.numTraj; r++ {
		id := binary.LittleEndian.Uint32(c.data[c.rankOff+r*4:])
		if id >= uint32(c.numTraj) || seen[id] {
			return fmt.Errorf("index: rank section is not a permutation (rank %d → id %d)", r, id)
		}
		seen[id] = true
		d := c.departure(int32(id))
		if math.IsNaN(d) || d < prev {
			return fmt.Errorf("index: departures not sorted at rank %d", r)
		}
		prev = d
	}

	expectOff := c.blobOff
	prevSym := int64(-1)
	totalPostings := 0
	for i := 0; i < c.numSyms; i++ {
		e, err := c.entryChecked(i)
		if err != nil {
			return err
		}
		if int64(e.sym) <= prevSym {
			return fmt.Errorf("index: symbol table not strictly ascending at entry %d", i)
		}
		prevSym = int64(e.sym)
		if e.listOff != expectOff {
			return fmt.Errorf("index: symbol %d list at %d, expected %d (blob not contiguous)", e.sym, e.listOff, expectOff)
		}
		expectOff += e.listLen + e.tempLen
		if expectOff > len(c.data) {
			return fmt.Errorf("index: symbol %d lists run past end of arena", e.sym)
		}
		if err := c.sweepList(e.listOff, e.listLen, e.count, false); err != nil {
			return fmt.Errorf("index: symbol %d main list: %w", e.sym, err)
		}
		if err := c.sweepList(e.listOff+e.listLen, e.tempLen, e.count, true); err != nil {
			return fmt.Errorf("index: symbol %d temporal list: %w", e.sym, err)
		}
		totalPostings += e.count
	}
	if expectOff != len(c.data) {
		return fmt.Errorf("index: %d trailing bytes after last list", len(c.data)-expectOff)
	}
	if totalPostings != c.numPostings {
		return fmt.Errorf("index: symbol table counts sum to %d postings, header claims %d", totalPostings, c.numPostings)
	}
	return nil
}

// sweepList structurally validates one encoded list. temporal selects
// the key domain: departure ranks (non-decreasing, duplicates allowed
// across positions) versus trajectory IDs with strictly increasing
// (ID, pos).
func (c *Compact) sweepList(off, length, count int, temporal bool) error {
	if count == 0 {
		if length != 0 {
			return fmt.Errorf("%d bytes for an empty list", length)
		}
		return nil
	}
	numBlocks := (count + c.blockSize - 1) / c.blockSize
	skipBytes := numBlocks * 8
	if length < skipBytes {
		return fmt.Errorf("list of %d bytes shorter than its %d-byte skip table", length, skipBytes)
	}
	list := c.data[off : off+length]
	dataStart := skipBytes
	pos := dataStart
	prevKey := int64(-1)
	prevPos := int64(-1)
	for b := 0; b < numBlocks; b++ {
		firstKey := binary.LittleEndian.Uint32(list[b*8:])
		relOff := binary.LittleEndian.Uint32(list[b*8+4:])
		if dataStart+int(relOff) != pos {
			return fmt.Errorf("skip entry %d points at %d, block starts at %d", b, dataStart+int(relOff), pos-dataStart)
		}
		n := min(c.blockSize, count-b*c.blockSize)
		if pos+2 > length {
			return fmt.Errorf("block %d frame header past end of list", b)
		}
		kb, pb := int(list[pos]), int(list[pos+1])
		if kb > 32 || pb > 32 {
			return fmt.Errorf("block %d bit widths (%d, %d) out of range", b, kb, pb)
		}
		keyBytes := (n*kb + 7) / 8
		posBytes := (n*pb + 7) / 8
		if pos+2+keyBytes+posBytes > length {
			return fmt.Errorf("block %d frame runs past end of list", b)
		}
		keys := list[pos+2 : pos+2+keyBytes]
		ps := list[pos+2+keyBytes : pos+2+keyBytes+posBytes]
		key := uint64(firstKey)
		for j := 0; j < n; j++ {
			delta := uint64(bitsAt(keys, j*kb, kb))
			p := uint64(bitsAt(ps, j*pb, pb))
			if j == 0 && delta != 0 {
				return fmt.Errorf("block %d first delta %d (first key must equal the skip entry)", b, delta)
			}
			key += delta
			if key >= uint64(c.numTraj) {
				return fmt.Errorf("key %d out of range [0, %d)", key, c.numTraj)
			}
			if p > math.MaxInt32 {
				return fmt.Errorf("position %d out of range", p)
			}
			if temporal {
				if int64(key) < prevKey {
					return fmt.Errorf("temporal ranks decrease at key %d", key)
				}
			} else {
				if int64(key) < prevKey || (int64(key) == prevKey && int64(p) <= prevPos) {
					return fmt.Errorf("(id, pos) not strictly increasing at (%d, %d)", key, p)
				}
			}
			prevKey, prevPos = int64(key), int64(p)
		}
		pos += 2 + keyBytes + posBytes
	}
	if pos != length {
		return fmt.Errorf("list has %d trailing bytes", length-pos)
	}
	return nil
}

// entryChecked parses symbol-table row i with bounds checks (validation
// path; query paths use entry, which assumes a validated arena).
func (c *Compact) entryChecked(i int) (compactEntry, error) {
	off := c.symTabOff + i*24
	listOff, err := u64At(c.data, off+8)
	if err != nil {
		return compactEntry{}, err
	}
	if listOff > uint64(len(c.data)) {
		return compactEntry{}, fmt.Errorf("index: symbol entry %d list offset %d out of range", i, listOff)
	}
	e := c.entry(i)
	if e.listLen < 0 || e.tempLen < 0 || e.count < 0 {
		return compactEntry{}, fmt.Errorf("index: symbol entry %d has negative sizes", i)
	}
	return e, nil
}

// --- persistence ----------------------------------------------------------

// Save writes the arena verbatim; the on-disk format *is* the in-memory
// layout, so save/load round trips are byte-identical by construction.
func (c *Compact) Save(w io.Writer) error {
	_, err := w.Write(c.data)
	return err
}

// Bytes exposes the arena (read-only; shared with any mapping).
func (c *Compact) Bytes() []byte { return c.data }

// Close releases the underlying mapping for arenas opened by OpenMapped;
// it is a no-op for heap-built arenas. The Compact must not be used after
// Close.
func (c *Compact) Close() error {
	if c.closer == nil {
		return nil
	}
	f := c.closer
	c.closer = nil
	c.data = nil
	return f()
}

// --- read surface ---------------------------------------------------------

// NumTrajectories returns the number of trajectories frozen into the
// snapshot (IDs [0, NumTrajectories) are answered by this arena).
func (c *Compact) NumTrajectories() int { return c.numTraj }

// NumSymbols returns the number of distinct symbols with postings.
func (c *Compact) NumSymbols() int { return c.numSyms }

// NumPostings returns the total posting count.
func (c *Compact) NumPostings() int { return c.numPostings }

// IndexBytes returns the exact arena size — the whole memory footprint of
// the backend (plus page-cache residency when mapped).
func (c *Compact) IndexBytes() int64 { return int64(len(c.data)) }

func (c *Compact) departure(id int32) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.intervalsOff+int(id)*16:]))
}

// Interval returns the trajectory's [departure, arrival] span.
func (c *Compact) Interval(id int32) (lo, hi float64) {
	off := c.intervalsOff + int(id)*16
	return math.Float64frombits(binary.LittleEndian.Uint64(c.data[off:])),
		math.Float64frombits(binary.LittleEndian.Uint64(c.data[off+8:]))
}

// IntervalOverlaps reports whether trajectory id's interval intersects
// [lo, hi].
func (c *Compact) IntervalOverlaps(id int32, lo, hi float64) bool {
	dep, arr := c.Interval(id)
	return dep <= hi && arr >= lo
}

func (c *Compact) idAtRank(r int) int32 {
	return int32(binary.LittleEndian.Uint32(c.data[c.rankOff+r*4:]))
}

// entry parses symbol-table row i (validated arena fast path).
func (c *Compact) entry(i int) compactEntry {
	e := c.data[c.symTabOff+i*24:]
	return compactEntry{
		sym:     traj.Symbol(binary.LittleEndian.Uint32(e[0:])),
		count:   int(binary.LittleEndian.Uint32(e[4:])),
		listOff: int(binary.LittleEndian.Uint64(e[8:])),
		listLen: int(binary.LittleEndian.Uint32(e[16:])),
		tempLen: int(binary.LittleEndian.Uint32(e[20:])),
	}
}

// findSym binary-searches the symbol table.
func (c *Compact) findSym(sym traj.Symbol) (compactEntry, bool) {
	lo, hi := 0, c.numSyms
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s := traj.Symbol(binary.LittleEndian.Uint32(c.data[c.symTabOff+mid*24:]))
		switch {
		case s < sym:
			lo = mid + 1
		case s > sym:
			hi = mid
		default:
			return c.entry(mid), true
		}
	}
	return compactEntry{}, false
}

// Freq returns n(q) straight from the symbol table — no decoding.
func (c *Compact) Freq(q traj.Symbol) int {
	if e, ok := c.findSym(q); ok {
		return e.count
	}
	return 0
}

// Symbols returns every indexed symbol in ascending order (test and
// tooling surface; allocates).
func (c *Compact) Symbols() []traj.Symbol {
	out := make([]traj.Symbol, c.numSyms)
	for i := range out {
		out[i] = traj.Symbol(binary.LittleEndian.Uint32(c.data[c.symTabOff+i*24:]))
	}
	return out
}

// decodeMain decodes a symbol's full ID-ordered list into dst.
func (c *Compact) decodeMain(e compactEntry, dst []Posting) []Posting {
	if e.count == 0 {
		return dst
	}
	dst = slices.Grow(dst, e.count)
	numBlocks := (e.count + c.blockSize - 1) / c.blockSize
	list := c.data[e.listOff : e.listOff+e.listLen]
	pos := numBlocks * 8
	for b := 0; b < numBlocks; b++ {
		key := binary.LittleEndian.Uint32(list[b*8:])
		n := min(c.blockSize, e.count-b*c.blockSize)
		kb, pb := int(list[pos]), int(list[pos+1])
		keyBytes := (n*kb + 7) / 8
		posBytes := (n*pb + 7) / 8
		keys := list[pos+2 : pos+2+keyBytes]
		ps := list[pos+2+keyBytes : pos+2+keyBytes+posBytes]
		for j := 0; j < n; j++ {
			key += bitsAt(keys, j*kb, kb)
			dst = append(dst, Posting{ID: int32(key), Pos: int32(bitsAt(ps, j*pb, pb))})
		}
		pos += 2 + keyBytes + posBytes
	}
	return dst
}

// decodeTemporalWindow appends the postings of e whose departure rank
// lies in [rankLo, rankHi), using the skip table to decode only covering
// blocks.
func (c *Compact) decodeTemporalWindow(e compactEntry, rankLo, rankHi int, dst []Posting) []Posting {
	if e.count == 0 || rankLo >= rankHi {
		return dst
	}
	numBlocks := (e.count + c.blockSize - 1) / c.blockSize
	tempOff := e.listOff + e.listLen
	list := c.data[tempOff : tempOff+e.tempLen]
	dataStart := numBlocks * 8
	// First block that can hold rank ≥ rankLo: the last whose firstKey is
	// strictly below rankLo, clamped to block 0. (Not ≤: keys equal to
	// rankLo may straddle a block boundary, so a block whose firstKey
	// equals rankLo can be preceded by in-window keys at the previous
	// block's tail.) Earlier blocks hold only keys ≤ that firstKey,
	// hence < rankLo.
	b := sort.Search(numBlocks, func(i int) bool {
		return binary.LittleEndian.Uint32(list[i*8:]) >= uint32(rankLo)
	}) - 1
	if b < 0 {
		b = 0
	}
	for ; b < numBlocks; b++ {
		firstKey := binary.LittleEndian.Uint32(list[b*8:])
		if int(firstKey) >= rankHi {
			break
		}
		pos := dataStart + int(binary.LittleEndian.Uint32(list[b*8+4:]))
		key := firstKey
		n := min(c.blockSize, e.count-b*c.blockSize)
		kb, pb := int(list[pos]), int(list[pos+1])
		keyBytes := (n*kb + 7) / 8
		keys := list[pos+2 : pos+2+keyBytes]
		ps := list[pos+2+keyBytes : pos+2+keyBytes+(n*pb+7)/8]
		for j := 0; j < n; j++ {
			key += bitsAt(keys, j*kb, kb)
			if int(key) >= rankHi {
				return dst // keys only grow from here
			}
			if int(key) < rankLo {
				continue
			}
			dst = append(dst, Posting{ID: c.idAtRank(int(key)), Pos: int32(bitsAt(ps, j*pb, pb))})
		}
	}
	return dst
}

// rankWindow maps a departure window to the covered rank interval
// [ra, rb): ra is the first rank departing ≥ lo, rb the first departing
// > hi (the Inverted.PostingsInWindow binary-search semantics, applied
// once globally instead of once per list).
func (c *Compact) rankWindow(lo, hi float64) (ra, rb int) {
	ra = sort.Search(c.numTraj, func(r int) bool { return c.departure(c.idAtRank(r)) >= lo })
	rb = sort.Search(c.numTraj, func(r int) bool { return c.departure(c.idAtRank(r)) > hi })
	return ra, rb
}

// --- pooled read cursors --------------------------------------------------

// CompactSource is a per-query read cursor over a Compact: it satisfies
// PostingSource by decoding lists lazily into its own pooled scratch, so
// concurrent queries never share decode buffers and steady-state reads
// allocate nothing. The slice returned by Postings/PostingsInWindow is
// valid until the next call on the same source — exactly the candidate-
// generation access pattern, which fully consumes each list before
// requesting the next.
type CompactSource struct {
	c       *Compact
	scratch []Posting
}

var compactSources = sync.Pool{New: func() any { return new(CompactSource) }}

// NumShards: a base is one posting source.
func (c *Compact) NumShards() int { return 1 }

// Source checks a pooled cursor out of the pool. Pair with
// ReleaseSource.
//
//subtrajlint:pool-transfer
func (c *Compact) Source(int) PostingSource {
	s := compactSources.Get().(*CompactSource)
	s.c = c
	return s
}

// BuildTemporal is a no-op: the departure order is frozen into the arena.
func (c *Compact) BuildTemporal() {}

// TemporalReady is always true, for the same reason.
func (c *Compact) TemporalReady() bool { return true }

// Kind names the backend family for stats and bench output.
func (c *Compact) Kind() string { return "compact" }

// Rebuild freezes ds into a fresh heap arena.
func (c *Compact) Rebuild(ds *traj.Dataset) Backend { return FreezeDataset(ds) }

// Release returns the cursor to the pool, capping retained scratch.
func (s *CompactSource) Release() {
	s.c = nil
	if cap(s.scratch) > maxRetainedPostings {
		s.scratch = nil
	}
	compactSources.Put(s)
}

// Postings decodes L_q into the cursor's scratch. Valid until the next
// call on this source; do not modify.
func (s *CompactSource) Postings(q traj.Symbol) []Posting {
	e, ok := s.c.findSym(q)
	if !ok {
		return nil
	}
	s.scratch = s.c.decodeMain(e, s.scratch[:0])
	return s.scratch
}

// PostingsInWindow decodes the postings of q whose trajectory departs in
// [lo, hi]. The temporal order is frozen into the arena, so it needs no
// BuildTemporal call.
func (s *CompactSource) PostingsInWindow(q traj.Symbol, lo, hi float64) []Posting {
	e, ok := s.c.findSym(q)
	if !ok {
		return nil
	}
	ra, rb := s.c.rankWindow(lo, hi)
	s.scratch = s.c.decodeTemporalWindow(e, ra, rb, s.scratch[:0])
	return s.scratch
}

// IntervalOverlaps reports whether trajectory id's interval intersects
// [lo, hi].
func (s *CompactSource) IntervalOverlaps(id int32, lo, hi float64) bool {
	return s.c.IntervalOverlaps(id, lo, hi)
}

var _ PostingSource = (*CompactSource)(nil)
