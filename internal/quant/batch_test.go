package quant

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix builds a deterministic quantized matrix for kernel tests.
func randMatrix(rng *rand.Rand, rows, cols, bits int) *Matrix {
	off := 1 << (bits - 1)
	m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(2*off) - off)
	}
	return m
}

// checkDigitSlab asserts that member k's digit words in pb hold exactly the
// byte-per-row digits (digits[b][i] = bit b of row i's code), with every
// tail bit beyond pb.N zero.
func checkDigitSlab(t *testing.T, tag string, pb *PackedBatch, k int, digits [][]uint8) {
	t.Helper()
	for b := 0; b < InputBits; b++ {
		for i := 0; i < pb.Words*64; i++ {
			var want uint64
			if i < pb.N {
				want = uint64(digits[b][i])
			}
			if got := pb.DigitWord(i>>6, k, b) >> uint(i&63) & 1; got != want {
				t.Fatalf("%s member %d bit %d row %d: digit %d, want %d", tag, k, b, i, got, want)
			}
		}
	}
}

// TestQuantizeBatchMatchesQuantizeInput: batch quantization must reproduce
// QuantizeInput member for member — same scales, same codes, same digits —
// since bit-exactness of the batched engine rests on it.
func TestQuantizeBatchMatchesQuantizeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, b = 130, 5 // two full words + ragged tail
	xs := make([][]float64, b)
	flat := make([]float64, n*b)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			v := rng.Float64()*20 - 2 // include negatives (clamped to 0)
			xs[k][i] = v
			flat[k*n+i] = v
		}
	}
	xs[2] = make([]float64, n) // all-zero member: scale falls back to 1
	copy(flat[2*n:3*n], xs[2])

	for name, pb := range map[string]*PackedBatch{
		"flat": QuantizeBatchFlatInto(nil, flat, n, b),
	} {
		if pb.N != n || pb.B != b || pb.Words != (n+63)/64 {
			t.Fatalf("%s: batch shape %dx%d (%d words)", name, pb.N, pb.B, pb.Words)
		}
		for k := 0; k < b; k++ {
			want := QuantizeInput(xs[k])
			if pb.Scales[k] != want.Scale {
				t.Fatalf("%s member %d: scale %v, want %v", name, k, pb.Scales[k], want.Scale)
			}
			u := pb.Member(k)
			var usum float64
			for i := range u {
				if u[i] != want.U[i] {
					t.Fatalf("%s member %d row %d: code %d, want %d", name, k, i, u[i], want.U[i])
				}
				usum += float64(u[i])
			}
			if pb.USums[k] != usum {
				t.Fatalf("%s member %d: usum %v, want %v", name, k, pb.USums[k], usum)
			}
			checkDigitSlab(t, name, pb, k, want.Digits)
		}
	}
}

// TestPackInputsRoundTrip: packing pre-quantized Inputs preserves codes,
// scales, code sums and digits exactly.
func TestPackInputsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, b = 70, 3
	ins := make([]*Input, b)
	for k := range ins {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 9
		}
		ins[k] = QuantizeInput(x)
	}
	pb := PackInputs(ins)
	for k, in := range ins {
		if pb.Scales[k] != in.Scale {
			t.Fatalf("member %d: scale %v, want %v", k, pb.Scales[k], in.Scale)
		}
		var usum float64
		for i, c := range in.U {
			if pb.Member(k)[i] != c {
				t.Fatalf("member %d row %d: code %d, want %d", k, i, pb.Member(k)[i], c)
			}
			usum += float64(c)
		}
		if pb.USums[k] != usum {
			t.Fatalf("member %d: usum %v, want %v", k, pb.USums[k], usum)
		}
		checkDigitSlab(t, "packed", pb, k, in.Digits)
	}
	// Reuse with a smaller batch must fully reset the slab.
	pb2 := PackInputsInto(pb, ins[:1])
	checkDigitSlab(t, "reused", pb2, 0, ins[0].Digits)
}

// TestBatchedKernelsMatchSingleVector: ColSumCycles, ColRangeSumBatch and
// MulBatch against each member's own byte-per-cell reads — Σ_i bit·u_i per
// plane column, and the banded bitline count per cycle — and the integer
// reference, over ragged shapes and row bands.
func TestBatchedKernelsMatchSingleVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ rows, cols, bits, b int }{
		{5, 3, 8, 1},
		{64, 4, 8, 7},
		{70, 2, 4, 8},
		{200, 6, 1, 3},
		{129, 5, 8, 32},
	} {
		m := randMatrix(rng, tc.rows, tc.cols, tc.bits)
		planes := m.Slices()
		pm := PackPlanes(planes)
		ins := make([]*Input, tc.b)
		for k := range ins {
			x := make([]float64, tc.rows)
			for i := range x {
				x[i] = rng.Float64() * 100
			}
			ins[k] = QuantizeInput(x)
		}
		pb := PackInputs(ins)

		split := tc.rows / 3
		acc := make([]int64, tc.b)
		sums := make([]int64, tc.b)
		for j := 0; j < tc.cols; j++ {
			for pi, p := range pm.Planes {
				bp := planes[pi]
				// Full-height fused sweep == Σ_i bit·u_i per member.
				clear(acc)
				p.ColSumCycles(j, pb, acc)
				for k, in := range ins {
					var want int64
					for i := 0; i < tc.rows; i++ {
						want += int64(bp.Bits[i*tc.cols+j]) * int64(in.U[i])
					}
					if acc[k] != want {
						t.Fatalf("%dx%d/%d-bit B=%d: ColSumCycles col %d plane %d member %d: %d, want %d",
							tc.rows, tc.cols, tc.bits, tc.b, j, p.Bit, k, acc[k], want)
					}
				}
				// Per-cycle band reads match the byte loop member for member.
				for b := 0; b < InputBits; b++ {
					p.ColRangeSumBatch(j, split, tc.rows, b, pb, sums)
					for k, in := range ins {
						var want int64
						for i := split; i < tc.rows; i++ {
							want += int64(bp.Bits[i*tc.cols+j] & in.Digits[b][i])
						}
						if sums[k] != want {
							t.Fatalf("col %d plane %d bit %d member %d: %d, want %d", j, p.Bit, b, k, sums[k], want)
						}
					}
				}
			}
		}

		// MulBatch == integer reference per member.
		out := make([]int64, tc.b*tc.cols)
		pm.MulBatch(pb, out)
		off := int64(m.Offset())
		for k, in := range ins {
			for j := 0; j < tc.cols; j++ {
				var want int64
				for i := 0; i < tc.rows; i++ {
					want += (int64(m.Q[i*tc.cols+j]) + off) * int64(in.U[i])
				}
				if out[k*tc.cols+j] != want {
					t.Fatalf("%dx%d/%d-bit B=%d: MulBatch member %d col %d: %d, want %d",
						tc.rows, tc.cols, tc.bits, tc.b, k, j, out[k*tc.cols+j], want)
				}
			}
		}
	}
}

// TestQuantizeBatchFlatZeroAllocs: warm batch quantization must not
// allocate — the per-patch Input construction the batched engine lifted
// out of the inner loop must not creep back in.
func TestQuantizeBatchFlatZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, b = 363, 32
	flat := make([]float64, n*b)
	for i := range flat {
		flat[i] = rng.Float64() * 5
	}
	pb := QuantizeBatchFlatInto(nil, flat, n, b)
	avg := testing.AllocsPerRun(50, func() {
		pb = QuantizeBatchFlatInto(pb, flat, n, b)
	})
	if avg != 0 {
		t.Fatalf("warm QuantizeBatchFlatInto allocates %.2f times per call, want 0", avg)
	}
}

// ActivationCode must quantize exactly as the original clamp, math.Round
// and saturate sequence — code and rounded value, by bits — on ties and
// their neighbours, values either side of 0.5, −0, NaN, infinities,
// subnormals, saturating values and random activations.
func TestActivationCodeMatchesRound(t *testing.T) {
	check := func(v, scale float64) {
		x := v
		if x < 0 {
			x = 0
		}
		wr := math.Round(x / scale)
		if wr > 255 {
			wr = 255
		}
		gc, gr := ActivationCode(v, scale)
		if gc != uint8(wr) || math.Float64bits(gr) != math.Float64bits(wr) {
			t.Fatalf("ActivationCode(%v, %v) = %d, %v; want %d, %v", v, scale, gc, gr, uint8(wr), wr)
		}
	}
	vs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -3, 1e308,
		math.SmallestNonzeroFloat64, 0.49999999999999994, 0.5, math.Nextafter(0.5, 1), 1 << 52, 1<<53 + 1}
	for k := 0; k <= 300; k++ {
		tie := float64(k) + 0.5
		vs = append(vs, tie, math.Nextafter(tie, 0), math.Nextafter(tie, 1000), float64(k))
	}
	for _, scale := range []float64{1, 0.25, 1.0 / 255, 3.7 / 255, math.SmallestNonzeroFloat64, 1e300, math.Inf(1)} {
		for _, v := range vs {
			check(v, scale)
			check(v*scale, scale) // v in scale units, ties up to rounding
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		scale := rng.Float64() * 4 / 255
		check(rng.Float64()*300*scale, scale)
		check((float64(rng.Intn(256))+0.5)*scale, scale)
	}
}
