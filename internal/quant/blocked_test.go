package quant

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBlockedMatchesReference checks the AVX2 blocked kernel bit-exactly
// against the scalar signed reference Σ_i q_i·u_i across shapes that
// exercise every tail: odd rows (scalar tail row), cols % 16 ≠ 0 (scalar
// column tail), single-member and wide batches, extreme codes (±128, 255),
// and batches that fill four-member groups and leave a remainder (B = 4, 5,
// 8, 9) together with odd rows and column tails.
func TestBlockedMatchesReference(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 blocked kernel on this CPU")
	}
	shapes := []struct{ rows, cols, B int }{
		{2, 16, 1},
		{3, 16, 2},  // odd rows
		{64, 48, 8}, // multiple blocks
		{65, 50, 5}, // odd rows + column tail
		{1, 17, 3},  // rp == 0: tail row only
		{200, 16, 33},
		{7, 31, 4},
		// Four-member groups (maddBlock4) and the B mod 4 remainder
		// (maddBlock) meeting the tail row and the column sweep.
		{9, 37, 4},
		{33, 40, 5},
		{65, 50, 8},
		{131, 19, 9},
		{1, 16, 9}, // rp == 0 inside a full group
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		m := &Matrix{Rows: sh.rows, Cols: sh.cols, Bits: 8, Scale: 1, Q: make([]int8, sh.rows*sh.cols)}
		for i := range m.Q {
			m.Q[i] = int8(rng.Intn(256) - 128)
		}
		// Force extremes into the corners.
		m.Q[0] = -128
		m.Q[len(m.Q)-1] = 127
		ins := make([]*Input, sh.B)
		for k := range ins {
			u := make([]uint8, sh.rows)
			for i := range u {
				u[i] = uint8(rng.Intn(256))
			}
			u[0] = 255
			ins[k] = &Input{N: sh.rows, Scale: 1, U: u}
		}
		pb := PackInputs(ins)
		bw := m.Blocked()
		if sh.cols < blockedColWidth {
			if bw != nil {
				t.Fatalf("%dx%d: Blocked() should be nil below one block width", sh.rows, sh.cols)
			}
			continue
		}
		if bw == nil {
			t.Fatalf("%dx%d: Blocked() returned nil with AVX2 available", sh.rows, sh.cols)
		}
		out := make([]float64, sh.B*sh.cols)
		bw.MulBatch(pb, out, make([]uint16, sh.B*sh.rows))
		for k := 0; k < sh.B; k++ {
			for j := 0; j < sh.cols; j++ {
				var want int64
				for i := 0; i < sh.rows; i++ {
					want += int64(m.Q[i*sh.cols+j]) * int64(ins[k].U[i])
				}
				if got := int64(out[k*sh.cols+j]); got != want {
					t.Fatalf("%dx%d B=%d member %d col %d: blocked %d, reference %d",
						sh.rows, sh.cols, sh.B, k, j, got, want)
				}
			}
		}
	}
}

// TestBlockedRowBound checks the memo's overflow gate: matrices above
// maxBlockedRows must not get a blocked form.
func TestBlockedRowBound(t *testing.T) {
	m := &Matrix{Rows: maxBlockedRows + 1, Cols: 16, Bits: 8, Scale: 1, Q: make([]int8, (maxBlockedRows+1)*16)}
	if m.Blocked() != nil {
		t.Fatalf("Blocked() must refuse %d rows (bound %d)", m.Rows, maxBlockedRows)
	}
}

// TestBlockedWorstCaseAtRowBound runs the blocked kernel at exactly
// maxBlockedRows rows with every weight −128 and every code 255, the most
// negative sum an int32 lane must hold: −32640 per row, −2 147 483 520 per
// column. B = 5 sends four members through maddBlock4 and one through
// maddBlock; the 17th column goes through the scalar column sweep.
func TestBlockedWorstCaseAtRowBound(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 blocked kernel on this CPU")
	}
	const rows, cols, B = maxBlockedRows, 17, 5
	const want = -128 * 255 * rows
	if want != -2147483520 {
		t.Fatalf("bound moved: worst-case column sum %d", want)
	}
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = -128
	}
	bw := m.Blocked()
	if bw == nil {
		t.Fatalf("Blocked() refused %d rows (bound %d)", rows, maxBlockedRows)
	}
	ins := make([]*Input, B)
	for k := range ins {
		u := make([]uint8, rows)
		for i := range u {
			u[i] = 255
		}
		ins[k] = &Input{N: rows, Scale: 1, U: u}
	}
	out := make([]float64, B*cols)
	bw.MulBatch(PackInputs(ins), out, make([]uint16, B*rows))
	for i, v := range out {
		if v != want {
			t.Fatalf("member %d col %d: %v, want %d", i/cols, i%cols, v, want)
		}
	}
}

// BenchmarkBlockedMulBatchConv4 times the AVX2 blocked kernel on VGG16
// conv4_2's shape (4608×512) with ~40% zero activations, the post-ReLU
// regime the serving path sees, at B = 1 (one-member kernel only), 4 (one
// four-member group) and 32 (RunBatch's kernel batch). SetBytes counts
// MACs, so MB/s reads as MMAC/s; GMAC/s is reported directly too.
func BenchmarkBlockedMulBatchConv4(b *testing.B) {
	const rows, cols = 4608, 512
	rng := rand.New(rand.NewSource(1))
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(256) - 128)
	}
	bw := m.Blocked()
	if bw == nil {
		b.Skip("no AVX2 blocked kernel on this CPU")
	}
	for _, B := range []int{1, 4, 32} {
		xs := make([]float64, rows*B)
		for i := range xs {
			if rng.Float64() >= 0.4 {
				xs[i] = rng.Float64() * 100
			}
		}
		pb := QuantizeBatchFlatInto(nil, xs, rows, B)
		out := make([]float64, B*cols)
		u16 := make([]uint16, B*rows)
		macs := int64(rows) * int64(cols) * int64(B)
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			b.SetBytes(macs)
			for i := 0; i < b.N; i++ {
				bw.MulBatch(pb, out, u16)
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
