package quant

// Packed bit-parallel representation of the crossbar state. A BitPlane
// stores one cell per byte, so the functional engines spend one branchy
// byte-load per (row, column) pair per read cycle. The crossbar hardware
// does nothing of the sort: a read cycle drives every wordline at once and
// each bitline's current IS the population count of (stored bit AND input
// digit) over the rows. PackedPlane reproduces that word-level parallelism
// in software: each column's cells are packed row-wise into []uint64 words,
// the input digits into matching per-cycle bitsets (PackedBatch), and one
// crossbar read becomes bits.OnesCount64(planeWord & digitWord) over
// ⌈rows/64⌉ words — the same integer sums as the byte loop, ~64 cells per
// instruction.
//
// Word order: word w of a column covers rows [64w, 64w+64), row r mapped to
// bit r-64w (LSB = lowest row). Rows beyond Rows in the tail word are zero
// in both plane and digit words, so full-column sums need no tail masking;
// row-range sums (ColRangeSumBatch) mask the first and last word of the
// range explicitly.

// PackedPlane is one bit plane packed column-major: column j's rows live in
// Words[j*WordsPerCol : (j+1)*WordsPerCol].
type PackedPlane struct {
	Rows, Cols  int
	Bit         int // significance: plane contributes 2^Bit
	WordsPerCol int
	Words       []uint64
}

// PackPlane packs a byte-per-cell plane into the word-parallel layout.
func PackPlane(p *BitPlane) *PackedPlane {
	wpc := (p.Rows + 63) / 64
	pp := &PackedPlane{Rows: p.Rows, Cols: p.Cols, Bit: p.Bit,
		WordsPerCol: wpc, Words: make([]uint64, wpc*p.Cols)}
	for i := 0; i < p.Rows; i++ {
		row := p.Bits[i*p.Cols : (i+1)*p.Cols]
		w := i >> 6
		bit := uint64(1) << uint(i&63)
		for j, b := range row {
			if b != 0 {
				pp.Words[j*wpc+w] |= bit
			}
		}
	}
	return pp
}

// Col returns column j's packed words.
func (p *PackedPlane) Col(j int) []uint64 {
	return p.Words[j*p.WordsPerCol : (j+1)*p.WordsPerCol]
}

// PackedMatrix is a full bit-sliced weight matrix in packed form, least
// significant plane first — what a PE's stack of plane crossbars stores.
type PackedMatrix struct {
	Rows, Cols int
	Planes     []*PackedPlane
}

// PackPlanes packs a bit-plane stack (ideal, faulted, or repaired — any
// stack shaped like Matrix.Slices()) for the word-parallel kernels.
func PackPlanes(planes []*BitPlane) *PackedMatrix {
	pm := &PackedMatrix{Planes: make([]*PackedPlane, len(planes))}
	for i, p := range planes {
		pm.Planes[i] = PackPlane(p)
	}
	if len(planes) > 0 {
		pm.Rows, pm.Cols = planes[0].Rows, planes[0].Cols
	}
	return pm
}

// Planes returns the matrix's bit-plane stack, built once and memoized.
// Exec engines, fault injection, and the packer all consume the same planes;
// callers must treat them as immutable (fault/repair passes copy before
// mutating). Safe for concurrent use.
func (m *Matrix) Planes() []*BitPlane {
	m.memo.Lock()
	defer m.memo.Unlock()
	if m.memo.planes == nil {
		m.memo.planes = m.Slices()
	}
	return m.memo.planes
}

// Packed returns the word-packed form of the matrix's plane stack, built
// once and memoized. Safe for concurrent use.
func (m *Matrix) Packed() *PackedMatrix {
	m.memo.Lock()
	defer m.memo.Unlock()
	if m.memo.packed == nil {
		if m.memo.planes == nil {
			m.memo.planes = m.Slices()
		}
		m.memo.packed = PackPlanes(m.memo.planes)
	}
	return m.memo.packed
}
