package quant

import (
	"bytes"
	"testing"
)

// FuzzBatchedMVM checks the batched bit-matrix kernels four ways for any
// quantized matrix (1–8 bit weights, ragged row counts), any batch size
// (one member included), and any input codes, `==` for every member —
// never a tolerance:
// (1) each plane's fused sweep (ColSumCycles) equals the byte-per-cell
// read of that plane, Σ_i bit_ij·u_i over the Slices() byte planes;
// (2) MulBatch equals the scalar integer reference Σ_i (q_i+offset)·u_i;
// (3) the per-cycle band reads (ColRangeSumBatch, the crossbar-banded form
// the sim engine executes) split at an arbitrary row sum to the
// full-height sweep; and
// (4) the blocked kernel (BlockedMatrix.MulBatch, the fast path) produces
// the identical signed integers, popcount sums − offset·Σu, in every
// kernel MulBatch runs (the quad layout on its Go model everywhere and on
// VPDPBUSD where the CPU has it, and the pair layout on AVX2), run as two
// block ranges cut at a point the split byte draws, [0, cut) and
// [cut, Blocks). Column counts
// reach past two 16-column blocks so full blocks, zero-padded column
// blocks and the 1–3 padded rows of the last pair or quad all occur.
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
	// One member, one column of 130 rows split at 100: the lower band ends
	// inside the second word, the upper one starts there and ends in the
	// ragged third.
	f.Add(uint8(8), uint8(0), uint8(0), uint8(100), ramp[:130], []byte{255, 1, 0, 128, 77})
	// One member, 3 columns of 70 all-ones rows split at 65, one row past
	// the first word boundary.
	f.Add(uint8(4), uint8(2), uint8(0), uint8(65), bytes.Repeat([]byte{0xff}, 210), allOnes)
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
			ins[k] = &Input{N: rows, Scale: 1, U: u}
		}
		pb := PackInputs(ins)
		planes := m.Slices()
		pm := PackPlanes(planes)

		out := make([]int64, B*cols)
		pm.MulBatch(pb, out)
		for _, bm := range runnableKernels(m) {
			bout := make([]float64, B*cols)
			u16 := make([]uint16, B*rows+U16Slack)
			bm.WidenCodes(pb, u16, 0, B)
			cut := int(splitRaw) % (bm.Blocks + 1)
			bm.MulBatch(pb, bout, u16, false, 0, cut)
			bm.MulBatch(pb, bout, u16, false, cut, bm.Blocks)
			for k := 0; k < B; k++ {
				corr := int64(off) * int64(pb.USums[k])
				for j := 0; j < cols; j++ {
					if got, want := int64(bout[k*cols+j]), out[k*cols+j]-corr; got != want {
						t.Fatalf("%v member %d col %d: blocked %d, popcount − offset·Σu %d", bm, k, j, got, want)
					}
				}
			}
		}
		split := int(splitRaw) % (rows + 1)
		full, banded, lo, hi := make([]int64, B), make([]int64, B), make([]int64, B), make([]int64, B)
		for j := 0; j < cols; j++ {
			for k, in := range ins {
				// (2) scalar integer reference.
				var want int64
				for i := 0; i < rows; i++ {
					want += (int64(m.Q[i*cols+j]) + int64(off)) * int64(in.U[i])
				}
				if out[k*cols+j] != want {
					t.Fatalf("member %d col %d: batched %d, integer reference %d", k, j, out[k*cols+j], want)
				}
			}
			for pi, p := range pm.Planes {
				clear(full)
				p.ColSumCycles(j, pb, full)
				// (1) the byte-per-cell read of this plane column.
				for k, in := range ins {
					var want int64
					for i := 0; i < rows; i++ {
						want += int64(planes[pi].Bits[i*cols+j]) * int64(in.U[i])
					}
					if full[k] != want {
						t.Fatalf("col %d plane %d member %d: fused sweep %d, byte-per-cell %d", j, p.Bit, k, full[k], want)
					}
				}
				// (3) per-cycle band reads split at a row boundary sum to
				// the full-height sweep.
				clear(banded)
				for b := 0; b < InputBits; b++ {
					p.ColRangeSumBatch(j, 0, split, b, pb, lo)
					p.ColRangeSumBatch(j, split, rows, b, pb, hi)
					for k := range banded {
						banded[k] += (lo[k] + hi[k]) << uint(b)
					}
				}
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
