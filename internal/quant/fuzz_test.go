package quant

import "testing"

// FuzzBitSliceRoundTrip checks the bit-slice → reassemble invariant the
// crossbar engines rely on: for any quantized matrix, summing 2^Bit · plane
// over the Slices() planes reconstructs q + Offset() exactly, with planes
// ordered least significant first.
// FuzzPackedMVM checks the packed popcount kernel against the scalar integer
// MVM: for any quantized matrix (1–8 bit weights, ragged row counts, all-zero
// and all-ones planes) and any input vector, reconstructing
// Σ_p Σ_b 2^(Bit+b)·popcount(plane ∧ digits) over a row split must equal the
// exact integer product Σ_i (q_i+offset)·u_i — `==`, never a tolerance.
func FuzzPackedMVM(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(30), []byte{1, 255, 0, 127, 128, 5}, []byte{9, 0, 255})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{0, 1, 2}, []byte{7})
	// 70 rows: the packed column spans two words with a ragged tail.
	f.Add(uint8(4), uint8(1), uint8(65), make([]byte, 70), []byte{255, 1, 0, 128})
	allOnes := make([]byte, 70)
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	f.Add(uint8(8), uint8(1), uint8(64), allOnes, allOnes)
	f.Fuzz(func(t *testing.T, bitsRaw, colsRaw, splitRaw uint8, wdata, xdata []byte) {
		bits := int(bitsRaw)%8 + 1
		cols := int(colsRaw)%8 + 1
		rows := len(wdata) / cols
		if rows == 0 {
			return
		}
		if rows > 200 {
			rows = 200
		}
		off := 1 << (bits - 1)
		m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 1, Q: make([]int8, rows*cols)}
		for i := range m.Q {
			q := int(int8(wdata[i]))
			if q > off-1 {
				q = off - 1
			}
			if q < -off {
				q = -off
			}
			m.Q[i] = int8(q)
		}
		u := make([]uint8, rows)
		for i := range u {
			if len(xdata) > 0 {
				u[i] = xdata[i%len(xdata)]
			}
		}
		// Build the bit-serial form of u directly (QuantizeInput rescales to
		// the full 8-bit range; here the raw codes are the ground truth).
		in := &Input{N: rows, Scale: 1, U: u, Digits: make([][]uint8, InputBits)}
		for b := range in.Digits {
			in.Digits[b] = make([]uint8, rows)
			for i, v := range u {
				in.Digits[b][i] = (v >> b) & 1
			}
		}
		in.DigitWords = packDigits(nil, u)
		pm := m.Packed()
		if len(pm.Planes) != bits {
			t.Fatalf("%d-bit matrix packed into %d planes", bits, len(pm.Planes))
		}
		split := int(splitRaw) % (rows + 1) // row band boundary, may be 0 or rows
		for j := 0; j < cols; j++ {
			var packed int64
			for _, p := range pm.Planes {
				for b := 0; b < InputBits; b++ {
					d := in.DigitWords[b]
					sum := p.ColRangeSum(j, 0, split, d) + p.ColRangeSum(j, split, rows, d)
					if full := p.ColSum(j, d); sum != full {
						t.Fatalf("col %d plane %d cycle %d: split at %d sums %d, full %d", j, p.Bit, b, split, sum, full)
					}
					packed += int64(sum) << uint(b+p.Bit)
				}
			}
			var want int64
			for i := 0; i < rows; i++ {
				want += (int64(m.Q[i*cols+j]) + int64(off)) * int64(u[i])
			}
			if packed != want {
				t.Fatalf("col %d: packed MVM %d, integer reference %d", j, packed, want)
			}
		}
	})
}

// FuzzBatchedMVM checks the batched bit-matrix kernel four ways for any
// quantized matrix (1–8 bit weights, ragged row counts), any batch size,
// and any input codes: MulBatch must equal (1) B independent single-vector
// packed MVMs (ColSum reconstruction) and (2) the scalar integer reference
// Σ_i (q_i+offset)·u_i, `==` for every member — never a tolerance —
// (3) the per-cycle band reads (ColRangeSumBatch, the crossbar-banded form
// the sim engine executes) split at an arbitrary row must sum to the
// full-height sweep, and
// (4) the AVX2 blocked kernel (BlockedMatrix.MulBatch, the fast path) must
// produce the identical signed integers: popcount sums − offset·Σu. Column
// counts reach past two 16-column blocks so full blocks, column tails and
// odd-row tails all occur; (4) is skipped where Blocked() is nil.
func FuzzBatchedMVM(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(4), uint8(30), []byte{1, 255, 0, 127, 128, 5}, []byte{9, 0, 255})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), []byte{0, 1, 2}, []byte{7})
	// 70 rows: packed columns span two words with a ragged tail.
	f.Add(uint8(4), uint8(2), uint8(9), uint8(65), make([]byte, 140), []byte{255, 1, 0, 128})
	allOnes := make([]byte, 70)
	for i := range allOnes {
		allOnes[i] = 0xff
	}
	f.Add(uint8(8), uint8(1), uint8(32), uint8(64), allOnes, allOnes)
	// 21 columns × 7 rows: one full block, a column tail and an odd row.
	ramp := make([]byte, 147)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	f.Add(uint8(8), uint8(20), uint8(5), uint8(3), ramp, []byte{200, 0, 17, 255, 3})
	f.Fuzz(func(t *testing.T, bitsRaw, colsRaw, batchRaw, splitRaw uint8, wdata, xdata []byte) {
		bits := int(bitsRaw)%8 + 1
		cols := int(colsRaw)%40 + 1
		B := int(batchRaw)%33 + 1
		rows := len(wdata) / cols
		if rows == 0 {
			return
		}
		if rows > 200 {
			rows = 200
		}
		off := 1 << (bits - 1)
		m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 1, Q: make([]int8, rows*cols)}
		for i := range m.Q {
			q := int(int8(wdata[i]))
			if q > off-1 {
				q = off - 1
			}
			if q < -off {
				q = -off
			}
			m.Q[i] = int8(q)
		}
		// Derive B input vectors from xdata with member-dependent offsets so
		// the batch is heterogeneous even from short fuzz payloads.
		ins := make([]*Input, B)
		for k := range ins {
			u := make([]uint8, rows)
			for i := range u {
				if len(xdata) > 0 {
					u[i] = xdata[(i+k*7)%len(xdata)] + uint8(k)
				}
			}
			in := &Input{N: rows, Scale: 1, U: u, Digits: make([][]uint8, InputBits)}
			for b := range in.Digits {
				in.Digits[b] = make([]uint8, rows)
				for i, v := range u {
					in.Digits[b][i] = (v >> b) & 1
				}
			}
			in.DigitWords = packDigits(nil, u)
			ins[k] = in
		}
		pb := PackInputs(ins)
		pm := m.Packed()

		out := make([]int64, B*cols)
		pm.MulBatch(pb, out)
		if bw := m.Blocked(); bw != nil {
			bout := make([]float64, B*cols)
			bw.MulBatch(pb, bout, make([]uint16, B*rows))
			for k := 0; k < B; k++ {
				corr := int64(off) * int64(pb.USums[k])
				for j := 0; j < cols; j++ {
					if got, want := int64(bout[k*cols+j]), out[k*cols+j]-corr; got != want {
						t.Fatalf("member %d col %d: blocked %d, popcount − offset·Σu %d", k, j, got, want)
					}
				}
			}
		}
		split := int(splitRaw) % (rows + 1)
		banded, lo, hi := make([]int64, B), make([]int64, B), make([]int64, B)
		for j := 0; j < cols; j++ {
			for k, in := range ins {
				// (1) B independent single-vector packed MVMs.
				var single int64
				for _, p := range pm.Planes {
					for b := 0; b < InputBits; b++ {
						single += int64(p.ColSum(j, in.DigitWords[b])) << uint(b+p.Bit)
					}
				}
				if out[k*cols+j] != single {
					t.Fatalf("member %d col %d: batched %d, single-vector %d", k, j, out[k*cols+j], single)
				}
				// (2) scalar integer reference.
				var want int64
				for i := 0; i < rows; i++ {
					want += (int64(m.Q[i*cols+j]) + int64(off)) * int64(in.U[i])
				}
				if out[k*cols+j] != want {
					t.Fatalf("member %d col %d: batched %d, integer reference %d", k, j, out[k*cols+j], want)
				}
			}
			// (3) per-cycle band reads split at a row boundary sum to the
			// full-height sweep.
			for _, p := range pm.Planes {
				clear(banded)
				for b := 0; b < InputBits; b++ {
					p.ColRangeSumBatch(j, 0, split, b, pb, lo)
					p.ColRangeSumBatch(j, split, rows, b, pb, hi)
					for k := range banded {
						banded[k] += (lo[k] + hi[k]) << uint(b)
					}
				}
				full := make([]int64, B)
				p.ColSumCycles(j, pb, full)
				for k := range banded {
					if banded[k] != full[k] {
						t.Fatalf("col %d plane %d member %d: split at %d sums %d, full %d", j, p.Bit, k, split, banded[k], full[k])
					}
				}
			}
		}
	})
}

func FuzzBitSliceRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint8(3), []byte{1, 255, 0, 127, 128, 5})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 2})
	f.Add(uint8(4), uint8(7), []byte{200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, bitsRaw, colsRaw uint8, data []byte) {
		bits := int(bitsRaw)%8 + 1
		cols := int(colsRaw)%16 + 1
		rows := len(data) / cols
		if rows == 0 {
			return
		}
		data = data[:rows*cols]
		off := 1 << (bits - 1)
		m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: 0.5, Q: make([]int8, len(data))}
		for i, b := range data {
			q := int(int8(b))
			if q > off-1 {
				q = off - 1
			}
			if q < -off {
				q = -off
			}
			m.Q[i] = int8(q)
		}
		planes := m.Slices()
		if len(planes) != bits {
			t.Fatalf("%d-bit matrix sliced into %d planes", bits, len(planes))
		}
		for b, p := range planes {
			if p.Bit != b {
				t.Fatalf("plane %d has significance %d", b, p.Bit)
			}
			if p.Rows != rows || p.Cols != cols || len(p.Bits) != len(m.Q) {
				t.Fatalf("plane %d shape %dx%d (%d cells), want %dx%d", b, p.Rows, p.Cols, len(p.Bits), rows, cols)
			}
		}
		for i, q := range m.Q {
			sum := 0
			for _, p := range planes {
				if p.Bits[i] > 1 {
					t.Fatalf("cell %d plane %d holds non-binary %d", i, p.Bit, p.Bits[i])
				}
				sum += int(p.Bits[i]) << p.Bit
			}
			if sum != int(q)+off {
				t.Fatalf("cell %d: planes reassemble %d, want q %d + offset %d", i, sum, q, off)
			}
		}
	})
}
