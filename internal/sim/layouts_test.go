package sim

import (
	"fmt"
	"math"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/xbar"
)

// FuzzEngineLayouts builds random small chained CNNs — conv, a pool whose
// kernel and stride differ, conv, then two FC layers, the first flattening
// a map wider than 1×1 so its channels-last row permutation is not the
// identity — and runs a batch of inputs through them under random
// per-column scales and kernel batch caps. The fast mode (channels-last
// codes against permuted weight rows, the blocked kernel's fused epilogue)
// must equal the bit-exact mode (C-major codes gathered through the
// layer's order table, the bit-serial crossbar pipeline) bit for bit, and
// in both modes every batch output must equal that input's own Run. Both
// modes share the channels-last activations, so the first input is also
// run through runScalarRef, the C-major one-window-at-a-time oracle, which
// catches a layout fault the two modes would share. The fast mode must also
// give the same bits at GOMAXPROCS 1, 2 and 4.
func FuzzEngineLayouts(f *testing.F) {
	// Raw bytes; each field maps to lo + raw mod span (C = 1 + cB%20, …).
	// 3×8×8 → conv 3×3/1 pad 1 → 20×8×8 → pool 2/1 → conv 3×3 → 16×5×5
	// → fc 12 → fc 10; batch 2, kb 8.
	f.Add(uint8(2), uint8(4), uint8(4), uint8(2), uint8(0), uint8(1), uint8(19), uint8(0), uint8(0), uint8(2), uint8(15), uint8(11), uint8(1), uint8(7), false, int64(1))
	// A 1×1 conv padded by 2 (4×5×6 → 8×9×10): the map's corner windows lie
	// wholly in the padding. Pool 3/2, conv 2×2 → 17×3×3.
	f.Add(uint8(3), uint8(1), uint8(2), uint8(0), uint8(0), uint8(2), uint8(7), uint8(1), uint8(1), uint8(1), uint8(16), uint8(4), uint8(2), uint8(2), true, int64(2))
	// 20 and 35 output columns: the blocked kernel's 16-column blocks plus a
	// column tail; pool 2/3 skips pixels, and fc1 flattens a 35×2×1 map.
	f.Add(uint8(5), uint8(5), uint8(3), uint8(1), uint8(0), uint8(0), uint8(19), uint8(0), uint8(2), uint8(1), uint8(34), uint8(39), uint8(4), uint8(3), true, int64(3))
	// Rows mod 4 ≠ 0: 3·3·3 = 27 rows into conv1, 5·3·3 = 45 into conv2
	// and 17·5·5 = 425 into fc1, past 1–3 tail rows in the quad layout.
	f.Add(uint8(2), uint8(12), uint8(12), uint8(2), uint8(0), uint8(1), uint8(4), uint8(1), uint8(1), uint8(2), uint8(16), uint8(17), uint8(0), uint8(0), false, int64(4))
	f.Fuzz(func(t *testing.T, cB, hB, wB, k1B, s1B, p1B, o1B, pkB, psB, k2B, o2B, fcB, batchB, kbB uint8, perCol bool, seed int64) {
		C, H, W := 1+int(cB%20), 4+int(hB%13), 4+int(wB%13)
		k1, s1, p1 := 1+int(k1B%5), 1+int(s1B%3), int(p1B%3)
		pk := 2 + int(pkB%2)
		ps := 1 + int(psB%3)
		if ps == pk {
			ps = pk - 1
		}
		k2 := 1 + int(k2B%3)
		h1, w1 := (H+2*p1-k1)/s1+1, (W+2*p1-k1)/s1+1
		if H+2*p1 < k1 || W+2*p1 < k1 || h1 < pk || w1 < pk {
			return
		}
		h2, w2 := (h1-pk)/ps+1, (w1-pk)/ps+1
		if h2 < k2 || w2 < k2 || (h2-k2+1)*(w2-k2+1) < 2 {
			return // conv2 (stride 1, no padding) must leave a map wider than 1×1
		}
		out1, out2 := 1+int(o1B%40), 1+int(o2B%40)
		h3, w3 := h2-k2+1, w2-k2+1
		m, err := dnn.NewModel("fuzz", H, W, C, []*dnn.Layer{
			{Name: "c1", Kind: dnn.Conv, K: k1, InC: C, OutC: out1, Stride: s1, Pad: p1},
			{Name: "p1", Kind: dnn.Pool, K: pk, Stride: ps},
			{Name: "c2", Kind: dnn.Conv, K: k2, InC: out1, OutC: out2, Stride: 1},
			{Name: "f1", Kind: dnn.FC, K: 1, InC: out2 * h3 * w3, OutC: 1 + int(fcB%40), Stride: 1},
			{Name: "f2", Kind: dnn.FC, K: 1, InC: 1 + int(fcB%40), OutC: 10, Stride: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(64)), true)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]*dnn.Tensor, 1+int(batchB%5))
		for i := range inputs {
			inputs[i] = dnn.SyntheticTensor(C, H, W, seed+int64(i))
		}
		kb := 1 + int(kbB%8)
		eng := NewEngine(p)
		fast := InferenceOptions{Seed: seed, PerColumnScales: perCol}
		exact := fast
		exact.BitExact = true
		fastOut, _, err := eng.runBatch(inputs, fast, kb)
		if err != nil {
			t.Fatal(err)
		}
		exactOut, _, err := eng.runBatch(inputs, exact, kb)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 4} {
			atProcs(procs, func() {
				again, _, err := eng.runBatch(inputs, fast, kb)
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					sameOutputs(t, fmt.Sprintf("input %d: fast at GOMAXPROCS %d", i, procs), again[i], fastOut[i])
				}
			})
		}
		ref, _ := runScalarRef(t, eng, inputs[0], fast)
		sameOutputs(t, "input 0: fast vs C-major scalar reference", fastOut[0], ref)
		for i := range inputs {
			sameOutputs(t, fmt.Sprintf("input %d: fast vs bit-exact", i), fastOut[i], exactOut[i])
			for _, run := range []struct {
				opts  InferenceOptions
				batch []float64
			}{{fast, fastOut[i]}, {exact, exactOut[i]}} {
				alone, _, err := eng.Run(inputs[i], run.opts)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, fmt.Sprintf("input %d BitExact=%v: batch vs Run", i, run.opts.BitExact), run.batch, alone)
			}
		}
	})
}

// sameOutputs fails unless got and want hold the same float64s by bits.
func sameOutputs(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: out[%d] = %v (%#x), want %v (%#x)", what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}
