package quant

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomMatrix returns a quantized matrix with uniformly random codes at the
// given bit width, including the extremes -2^(b-1) and 2^(b-1)-1.
func randomMatrix(rng *rand.Rand, rows, cols, bits int) *Matrix {
	off := 1 << (bits - 1)
	m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(2*off) - off)
	}
	return m
}

func TestPackPlaneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Rows chosen to exercise sub-word, exact-word, and ragged tails.
	for _, rows := range []int{1, 63, 64, 65, 100, 128, 129} {
		m := randomMatrix(rng, rows, 5, 8)
		for _, p := range m.Slices() {
			pp := PackPlane(p)
			if pp.Rows != rows || pp.Cols != 5 || pp.Bit != p.Bit {
				t.Fatalf("rows=%d: packed shape %d×%d bit %d", rows, pp.Rows, pp.Cols, pp.Bit)
			}
			if pp.WordsPerCol != (rows+63)/64 {
				t.Fatalf("rows=%d: WordsPerCol %d", rows, pp.WordsPerCol)
			}
			for j := 0; j < pp.Cols; j++ {
				col := pp.Col(j)
				for i := 0; i < rows; i++ {
					got := uint8(col[i>>6] >> uint(i&63) & 1)
					if got != p.Bits[i*p.Cols+j] {
						t.Fatalf("rows=%d plane %d cell (%d,%d): packed %d byte %d", rows, p.Bit, i, j, got, p.Bits[i*p.Cols+j])
					}
				}
				// Tail bits beyond Rows must be zero so full-column popcounts
				// need no masking.
				for i := rows; i < pp.WordsPerCol*64; i++ {
					if col[i>>6]>>uint(i&63)&1 != 0 {
						t.Fatalf("rows=%d plane %d col %d: tail bit %d set", rows, p.Bit, j, i)
					}
				}
			}
		}
	}
}

// ColRangeSumBatch — the banded bitline read of every batch member — must
// count exactly what the byte-per-cell loop counts over the same rows, for
// bands inside one word, across word boundaries, at the ragged tail and
// empty.
func TestColRangeSumMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, cols, B = 150, 4, 3
	m := randomMatrix(rng, rows, cols, 4)
	ins := make([]*Input, B)
	for k := range ins {
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.Float64() * 3
		}
		ins[k] = QuantizeInput(x)
	}
	pb := PackInputs(ins)
	sums := make([]int64, B)
	ranges := [][2]int{{0, rows}, {0, 64}, {0, 63}, {1, 63}, {63, 65}, {64, 128}, {37, 100}, {128, 150}, {149, 150}, {5, 5}}
	for _, p := range m.Slices() {
		pp := PackPlane(p)
		for _, rr := range ranges {
			r0, r1 := rr[0], rr[1]
			for j := 0; j < cols; j++ {
				for b := 0; b < InputBits; b++ {
					pp.ColRangeSumBatch(j, r0, r1, b, pb, sums)
					for k, in := range ins {
						var want int64
						for i := r0; i < r1; i++ {
							if p.Bits[i*p.Cols+j] != 0 && in.Digits[b][i] != 0 {
								want++
							}
						}
						if sums[k] != want {
							t.Fatalf("plane %d col %d rows [%d,%d) cycle %d member %d: packed %d byte %d", p.Bit, j, r0, r1, b, k, sums[k], want)
						}
					}
				}
			}
		}
	}
}

// PackInputs must pack each member's byte digits into its digit words —
// row i at word i/64, bit i%64 — with every tail bit beyond N zero.
func TestDigitWordsMatchDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 65, 200} {
		ins := make([]*Input, 2)
		for k := range ins {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			ins[k] = QuantizeInput(x)
		}
		pb := PackInputs(ins)
		if pb.Words != (n+63)/64 || len(pb.Digits) != pb.Words*len(ins)*InputBits {
			t.Fatalf("n=%d: %d words per digit row, slab of %d", n, pb.Words, len(pb.Digits))
		}
		for k, in := range ins {
			checkDigitSlab(t, fmt.Sprintf("n=%d", n), pb, k, in.Digits)
		}
	}
}

// QuantizeInputInto must reuse buffers (no growth when capacity suffices) and
// produce exactly what a fresh QuantizeInput produces.
func TestQuantizeInputIntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := make([]float64, 130)
	for i := range big {
		big[i] = rng.Float64() * 7
	}
	in := QuantizeInputInto(nil, big)
	u0 := &in.U[0]
	for _, n := range []int{130, 70, 1, 130} {
		x := big[:n]
		got := QuantizeInputInto(in, x)
		if got != in {
			t.Fatal("QuantizeInputInto must return the same Input")
		}
		if &in.U[0] != u0 {
			t.Fatalf("n=%d: U buffer reallocated despite capacity", n)
		}
		want := QuantizeInput(x)
		if got.N != want.N || got.Scale != want.Scale {
			t.Fatalf("n=%d: header %d/%v want %d/%v", n, got.N, got.Scale, want.N, want.Scale)
		}
		for i := range want.U {
			if got.U[i] != want.U[i] {
				t.Fatalf("n=%d: U[%d] %d want %d", n, i, got.U[i], want.U[i])
			}
		}
		for b := range want.Digits {
			for i := range want.Digits[b] {
				if got.Digits[b][i] != want.Digits[b][i] {
					t.Fatalf("n=%d cycle %d row %d: digit %d want %d", n, b, i, got.Digits[b][i], want.Digits[b][i])
				}
			}
		}
	}
}

// Planes and Packed are memoized: repeated calls must return the same stack.
func TestPlanesAndPackedMemoized(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(5)), 40, 6, 8)
	p1, p2 := m.Planes(), m.Planes()
	if &p1[0] != &p2[0] {
		t.Fatal("Planes rebuilt on second call")
	}
	if m.Packed() != m.Packed() {
		t.Fatal("Packed rebuilt on second call")
	}
	if m.Packed().Rows != 40 || m.Packed().Cols != 6 || len(m.Packed().Planes) != 8 {
		t.Fatalf("packed header %dx%d, %d planes", m.Packed().Rows, m.Packed().Cols, len(m.Packed().Planes))
	}
}
