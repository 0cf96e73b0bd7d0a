package quant

import (
	"math/rand"
	"testing"
)

// TestBlockedMatchesReference checks the AVX2 blocked kernel bit-exactly
// against the scalar signed reference Σ_i q_i·u_i across shapes that
// exercise every tail: odd rows (scalar tail row), cols % 16 ≠ 0 (scalar
// column tail), single-member and wide batches, extreme codes (±128, 255).
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
			ins[k] = &Input{N: sh.rows, Scale: 1, U: u, DigitWords: packDigits(nil, u)}
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

// BenchmarkBlockedMulBatchConv4 times the AVX2 blocked kernel on the
// conv4 shape (3456×256, B=32) with ~40% zero activations, the post-ReLU
// regime the serving path sees. SetBytes counts MACs, so MB/s reads as
// MMAC/s.
func BenchmarkBlockedMulBatchConv4(b *testing.B) {
	const rows, cols, B = 3456, 256, 32
	rng := rand.New(rand.NewSource(1))
	m := &Matrix{Rows: rows, Cols: cols, Bits: 8, Scale: 1, Q: make([]int8, rows*cols)}
	for i := range m.Q {
		m.Q[i] = int8(rng.Intn(256) - 128)
	}
	xs := make([]float64, rows*B)
	for i := range xs {
		if rng.Float64() >= 0.4 {
			xs[i] = rng.Float64() * 100
		}
	}
	pb := QuantizeBatchFlatInto(nil, xs, rows, B)
	bw := m.Blocked()
	if bw == nil {
		b.Skip("no AVX2 blocked kernel on this CPU")
	}
	out := make([]float64, B*cols)
	u16 := make([]uint16, B*rows)
	b.SetBytes(int64(rows) * int64(cols) * int64(B))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.MulBatch(pb, out, u16)
	}
}
