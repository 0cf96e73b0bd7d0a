package dnn

import (
	"math"
	"testing"
	"testing/quick"
)

func uniformKeep(m *Model, k float64) []float64 {
	keep := make([]float64, m.NumMappable())
	for i := range keep {
		keep[i] = k
	}
	keep[len(keep)-1] = 1
	return keep
}

func TestPruneChannelsHalvesAlexNet(t *testing.T) {
	m := AlexNet()
	pruned, err := PruneChannels(m, uniformKeep(m, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumMappable() != m.NumMappable() {
		t.Fatalf("layer count changed: %d", pruned.NumMappable())
	}
	// conv1: 64 → 32 outputs; conv2 inputs follow.
	if pruned.Mappable()[0].OutC != 32 {
		t.Fatalf("conv1 out = %d, want 32", pruned.Mappable()[0].OutC)
	}
	if pruned.Mappable()[1].InC != 32 {
		t.Fatalf("conv2 in = %d, want 32", pruned.Mappable()[1].InC)
	}
	// fc6's flattened input scales with conv5's channel ratio: 128·3·3.
	fc6 := pruned.Mappable()[5]
	if fc6.InC != 128*3*3 {
		t.Fatalf("fc6 in = %d, want %d", fc6.InC, 128*9)
	}
	// Final logits untouched.
	last := pruned.Mappable()[7]
	if last.OutC != 10 {
		t.Fatalf("logits pruned to %d", last.OutC)
	}
	// Weights shrink to roughly a quarter (both dims halve on most layers).
	frac, err := PrunedFraction(m, uniformKeep(m, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.6 || frac > 0.85 {
		t.Fatalf("pruned fraction %v, want ≈0.75", frac)
	}
}

func TestPruneChannelsIdentity(t *testing.T) {
	m := VGG16()
	pruned, err := PruneChannels(m, uniformKeep(m, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.TotalWeights() != m.TotalWeights() {
		t.Fatalf("identity pruning changed weights: %d vs %d", pruned.TotalWeights(), m.TotalWeights())
	}
}

func TestPruneChannelsDoesNotMutateOriginal(t *testing.T) {
	m := AlexNet()
	origOut := m.Mappable()[0].OutC
	if _, err := PruneChannels(m, uniformKeep(m, 0.5)); err != nil {
		t.Fatal(err)
	}
	if m.Mappable()[0].OutC != origOut {
		t.Fatal("pruning mutated the source model")
	}
}

func TestPruneChannelsValidation(t *testing.T) {
	m := AlexNet()
	bad := [][]float64{
		make([]float64, 3), // wrong length
		uniformKeep(m, 0),  // zero is invalid — but uniformKeep forces last=1...
	}
	bad[1][0] = 0
	for i, keep := range bad {
		if _, err := PruneChannels(m, keep); err == nil {
			t.Errorf("case %d must error", i)
		}
	}
	// Out-of-range ratio.
	keep := uniformKeep(m, 0.5)
	keep[2] = 1.5
	if _, err := PruneChannels(m, keep); err == nil {
		t.Error("ratio > 1 must error")
	}
	keep[2] = math.NaN()
	if _, err := PruneChannels(m, keep); err == nil {
		t.Error("NaN ratio must error")
	}
	// Pruned logits.
	keep = uniformKeep(m, 0.5)
	keep[len(keep)-1] = 0.5
	if _, err := PruneChannels(m, keep); err == nil {
		t.Error("pruning logits must error")
	}
	// Grouped layers unsupported.
	dw := DepthwiseNet()
	if _, err := PruneChannels(dw, uniformKeep(dw, 0.5)); err == nil {
		t.Error("grouped model must error")
	}
}

// Property: any valid keep vector yields a valid model with weights ≤ the
// original and logits preserved.
func TestPruneChannelsProperty(t *testing.T) {
	m := VGG16()
	f := func(seed int64) bool {
		keep := make([]float64, m.NumMappable())
		r := seed
		for i := range keep {
			r = r*6364136223846793005 + 1442695040888963407
			keep[i] = 0.25 + float64(uint64(r)>>40%768)/1024 // 0.25..1.0
			if keep[i] > 1 {
				keep[i] = 1
			}
		}
		keep[len(keep)-1] = 1
		pruned, err := PruneChannels(m, keep)
		if err != nil {
			return false
		}
		if pruned.TotalWeights() > m.TotalWeights() {
			return false
		}
		last := pruned.Mappable()[pruned.NumMappable()-1]
		return last.OutC == 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPrunedModelRunsReference(t *testing.T) {
	m := AlexNet()
	pruned, err := PruneChannels(m, uniformKeep(m, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticTensor(1, 28, 28, 3)
	out, err := RunReference(pruned, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("pruned output len %d", len(out))
	}
	var norm float64
	for _, v := range out {
		norm += math.Abs(v)
	}
	if norm == 0 {
		t.Fatal("pruned reference produced all zeros")
	}
}
