package sim

import (
	"math"
	"strings"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/quant"
	"autohet/internal/xbar"
)

func TestExecuteMVMFaultyZeroModelMatchesIdeal(t *testing.T) {
	p := singleLayerPlan(t, 3, 7, 40, xbar.Rect(36, 32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 2))
	ideal, _, err := ExecuteMVM(cfg(), la, w, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, fm := range []*fault.Model{nil, {}} {
		got, _, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ideal {
			if math.Abs(got[j]-ideal[j]) > 1e-9 {
				t.Fatalf("zero fault model diverged at %d: %v vs %v", j, got[j], ideal[j])
			}
		}
	}
}

func TestExecuteMVMFaultyRejectsBadModel(t *testing.T) {
	p := singleLayerPlan(t, 3, 4, 8, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 1))
	if _, _, err := ExecuteMVMFaulty(cfg(), la, w, in, &fault.Model{StuckAtZero: -1}); err == nil {
		t.Fatal("invalid fault model must error")
	}
}

func TestStuckAtFaultsPerturbOutputs(t *testing.T) {
	p := singleLayerPlan(t, 3, 12, 64, xbar.Square(64))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 3))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 4))
	ideal, _, err := ExecuteMVM(cfg(), la, w, in)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := 0.0
	for _, rate := range []float64{0.001, 0.01, 0.1} {
		fm := &fault.Model{StuckAtZero: rate / 2, StuckAtOne: rate / 2, Seed: 9}
		got, _, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
		if err != nil {
			t.Fatal(err)
		}
		var errNorm, refNorm float64
		for j := range ideal {
			d := got[j] - ideal[j]
			errNorm += d * d
			refNorm += ideal[j] * ideal[j]
		}
		rel := math.Sqrt(errNorm / refNorm)
		if rel == 0 {
			t.Fatalf("rate %v produced no perturbation", rate)
		}
		if rel < prevErr {
			t.Fatalf("error did not grow with fault rate: %v after %v", rel, prevErr)
		}
		prevErr = rel
	}
}

// aggregateBatch runs the engine's fast faulty/repaired kernel,
// packedAggregateMVMBatch, over one batch of B synthetic patches of la's
// layer (seeds seed, seed+1, …) on the plane stack pm, and returns the
// quantized inputs with the member-major outputs.
func aggregateBatch(la *accel.LayerAlloc, pm *quant.PackedMatrix, w *quant.Matrix, fm *fault.Model, B int, seed int64) ([]*quant.Input, []float64) {
	ins := make([]*quant.Input, B)
	noise := make([]func() float64, B)
	for k := range ins {
		ins[k] = quant.QuantizeInput(dnn.SyntheticInput(la.Layer, seed+int64(k)))
		noise[k] = fm.Noise(int64(la.Layer.Index + 1))
	}
	out := make([]float64, B*w.Cols)
	packedAggregateMVMBatch(cfg(), pm, w, quant.PackInputs(ins), fm, noise, make([]int64, B), out)
	return ins, out
}

// The fast path's stuck-at handling is bit-identical to the bit-serial
// engine when read noise is off, for a lone patch and for a batch.
func TestFaultyFastPathMatchesBitExact(t *testing.T) {
	p := singleLayerPlan(t, 3, 7, 24, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 5))
	fm := &fault.Model{StuckAtZero: 0.05, StuckAtOne: 0.02, Seed: 11}
	pm := faultedPacked(w, fm, int64(la.Layer.Index+1))
	for _, B := range []int{1, 5} {
		ins, fast := aggregateBatch(la, pm, w, fm, B, 6)
		for k, in := range ins {
			exact, _, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
			if err != nil {
				t.Fatal(err)
			}
			for j := range exact {
				if got := fast[k*w.Cols+j]; got != exact[j] {
					t.Fatalf("B=%d member %d col %d: exact %v fast %v", B, k, j, exact[j], got)
				}
			}
		}
	}
}

func TestReadNoisePerturbsButCentersOnIdeal(t *testing.T) {
	p := singleLayerPlan(t, 1, 32, 16, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 7))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 8))
	ideal, _, err := ExecuteMVM(cfg(), la, w, in)
	if err != nil {
		t.Fatal(err)
	}
	// Average many noisy runs: the mean must approach the ideal output.
	sum := make([]float64, len(ideal))
	const runs = 200
	for r := 0; r < runs; r++ {
		fm := &fault.Model{ReadNoiseSigma: 0.5, Seed: int64(r)}
		got, _, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
		if err != nil {
			t.Fatal(err)
		}
		diff := false
		for j := range got {
			sum[j] += got[j]
			if got[j] != ideal[j] {
				diff = true
			}
		}
		if !diff {
			t.Fatal("noise produced identical output")
		}
	}
	for j := range sum {
		mean := sum[j] / runs
		// Noise per conversion is ±0.5 over 64 conversions with shifts up
		// to 2^14; allow a generous absolute band relative to magnitude.
		if math.Abs(mean-ideal[j]) > 0.02*math.Abs(ideal[j])+2000 {
			t.Fatalf("col %d: noisy mean %v far from ideal %v", j, mean, ideal[j])
		}
	}
}

// Whole-network fault injection: accuracy degrades gracefully with rate.
func TestRunInferenceWithFaults(t *testing.T) {
	m := tinyCNN(t)
	p, err := accel.BuildPlan(cfg(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(32)), false)
	if err != nil {
		t.Fatal(err)
	}
	input := dnn.SyntheticTensor(1, 6, 6, 13)
	clean, _, err := RunInference(p, input, InferenceOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(rate float64) float64 {
		fm := &fault.Model{StuckAtZero: rate / 2, StuckAtOne: rate / 2, Seed: 21}
		got, _, err := RunInference(p, input, InferenceOptions{Seed: 13, Faults: fm})
		if err != nil {
			t.Fatal(err)
		}
		var e, n float64
		for i := range clean {
			d := got[i] - clean[i]
			e += d * d
			n += clean[i] * clean[i]
		}
		return math.Sqrt(e / n)
	}
	small := relErr(0.001)
	large := relErr(0.2)
	if small <= 0 {
		t.Fatal("small fault rate produced no error")
	}
	if large <= small {
		t.Fatalf("error did not grow: %v at 0.1%% vs %v at 20%%", small, large)
	}
	// Invalid model is rejected on the fast path too.
	if _, _, err := RunInference(p, input, InferenceOptions{Seed: 13, Faults: &fault.Model{StuckAtOne: 2}}); err == nil {
		t.Fatal("invalid fault model must error")
	}
}

// Zero-model equivalence must hold on rectangular (RXB) candidates too,
// including geometries where a band splits the convolution kernel across
// crossbar rows — the paths where the faulty engine's per-plane copies
// could diverge from the ideal one.
func TestExecuteMVMFaultyZeroModelRectangularShapes(t *testing.T) {
	cases := []struct {
		k, inC, outC int
		shape        xbar.Shape
	}{
		{3, 16, 40, xbar.Rect(72, 64)},   // 144 rows needed: split-kernel bands
		{5, 3, 20, xbar.Rect(36, 32)},    // 75 rows over 36-row bands
		{1, 80, 24, xbar.Rect(288, 256)}, // FC-style on a wide RXB
	}
	for _, c := range cases {
		p := singleLayerPlan(t, c.k, c.inC, c.outC, c.shape)
		la := p.Layers[0]
		w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
		in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 2))
		ideal, idealStats, err := ExecuteMVM(cfg(), la, w, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, fm := range []*fault.Model{nil, {}} {
			got, stats, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ADCConversions != idealStats.ADCConversions {
				t.Fatalf("%v: conversions %d vs ideal %d", c.shape, stats.ADCConversions, idealStats.ADCConversions)
			}
			for j := range ideal {
				if math.Abs(got[j]-ideal[j]) > 1e-9 {
					t.Fatalf("%v: zero fault model diverged at %d: %v vs %v", c.shape, j, got[j], ideal[j])
				}
			}
		}
	}
}

// Grouped convolutions take the same unsupported-path error as the ideal
// engine instead of silently computing a dense result.
func TestExecuteMVMFaultyGroupedConvRejected(t *testing.T) {
	l := &dnn.Layer{Name: "dw", Kind: dnn.Conv, K: 3, InC: 8, OutC: 8, Groups: 8, Stride: 1, Pad: 1, InH: 8, InW: 8}
	m, err := dnn.NewFlatModel("grouped", 8, 8, 8, []*dnn.Layer{l})
	if err != nil {
		t.Fatal(err)
	}
	p, err := accel.BuildPlan(cfg(), m, accel.Homogeneous(1, xbar.Square(32)), false)
	if err != nil {
		t.Fatal(err)
	}
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 1))
	if _, _, err := ExecuteMVMFaulty(cfg(), la, w, in, &fault.Model{StuckAtZero: 0.1}); err == nil {
		t.Fatal("grouped convolution must be rejected")
	} else if !strings.Contains(err.Error(), "grouped") {
		t.Fatalf("unexpected error: %v", err)
	}
}
