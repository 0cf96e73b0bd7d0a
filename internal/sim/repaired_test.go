package sim

import (
	"math"
	"math/rand"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/fault"
	"autohet/internal/quant"
	"autohet/internal/repair"
	"autohet/internal/xbar"
)

func l2Rel(got, ref []float64) float64 {
	var errNorm, refNorm float64
	for j := range ref {
		d := got[j] - ref[j]
		errNorm += d * d
		refNorm += ref[j] * ref[j]
	}
	if refNorm == 0 {
		return math.Sqrt(errNorm)
	}
	return math.Sqrt(errNorm / refNorm)
}

// Property: over random layer geometries, fault rates, and spare budgets,
// (a) whenever the pass reports FullyRepaired the repaired output is
// bit-exact with ideal ExecuteMVM, and (b) whenever spares ran short the
// masked-degraded output error is strictly below the unrepaired
// ExecuteMVMFaulty error.
func TestExecuteMVMRepairedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shapes := []xbar.Shape{xbar.Square(32), xbar.Square(64), xbar.Rect(36, 32), xbar.Rect(72, 64)}
	sawExact, sawDegraded := 0, 0
	for trial := 0; trial < 25; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		k := 1 + 2*rng.Intn(2) // 1 or 3
		inC := 2 + rng.Intn(10)
		outC := 8 + rng.Intn(56)
		p := singleLayerPlan(t, k, inC, outC, shape)
		la := p.Layers[0]
		w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, int64(trial)))
		in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, int64(trial)+100))
		ideal, _, err := ExecuteMVM(cfg(), la, w, in)
		if err != nil {
			t.Fatal(err)
		}
		rate := []float64{0.001, 0.005, 0.02, 0.08}[rng.Intn(4)]
		fm := &fault.Model{StuckAtZero: rate / 2, StuckAtOne: rate / 2, Seed: int64(trial) * 13}
		pol := repair.Policy{Provision: repair.Provision{
			SpareCols: rng.Intn(shape.C + 1),
			SpareXBs:  rng.Intn(3),
		}}
		got, _, st, err := ExecuteMVMRepaired(cfg(), la, w, in, fm, pol)
		if err != nil {
			t.Fatal(err)
		}
		if st.FullyRepaired {
			sawExact++
			for j := range ideal {
				if got[j] != ideal[j] {
					t.Fatalf("trial %d (%v spares %+v rate %v): FullyRepaired but out[%d] = %v, ideal %v",
						trial, shape, pol.Provision, rate, j, got[j], ideal[j])
				}
			}
			continue
		}
		sawDegraded++
		unrepaired, _, err := ExecuteMVMFaulty(cfg(), la, w, in, fm)
		if err != nil {
			t.Fatal(err)
		}
		repairedErr, faultyErr := l2Rel(got, ideal), l2Rel(unrepaired, ideal)
		if repairedErr >= faultyErr {
			t.Fatalf("trial %d (%v spares %+v rate %v): masked error %v not below unrepaired %v (stats %v)",
				trial, shape, pol.Provision, rate, repairedErr, faultyErr, st)
		}
	}
	if sawExact == 0 || sawDegraded == 0 {
		t.Fatalf("property test must exercise both regimes: %d exact, %d degraded", sawExact, sawDegraded)
	}
}

// Full spare columns cover any fault map: bit-exact with ideal even at a
// brutal 20% cell fault rate.
func TestExecuteMVMRepairedFullCoverageBitExact(t *testing.T) {
	shape := xbar.Rect(36, 32)
	p := singleLayerPlan(t, 3, 7, 40, shape)
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 2))
	ideal, _, err := ExecuteMVM(cfg(), la, w, in)
	if err != nil {
		t.Fatal(err)
	}
	fm := &fault.Model{StuckAtZero: 0.1, StuckAtOne: 0.1, Seed: 5}
	pol := repair.Policy{Provision: repair.Provision{SpareCols: shape.C}}
	got, _, st, err := ExecuteMVMRepaired(cfg(), la, w, in, fm, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullyRepaired {
		t.Fatalf("full spare columns must fully repair: %v", st)
	}
	for j := range ideal {
		if got[j] != ideal[j] {
			t.Fatalf("out[%d] = %v, ideal %v", j, got[j], ideal[j])
		}
	}
	// Zero model short-circuits to the ideal planes.
	got, _, st, err = ExecuteMVMRepaired(cfg(), la, w, in, nil, repair.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullyRepaired {
		t.Fatal("nil model must report fully repaired")
	}
	for j := range ideal {
		if got[j] != ideal[j] {
			t.Fatalf("nil model out[%d] = %v, ideal %v", j, got[j], ideal[j])
		}
	}
}

// The fast repaired path — the engine's packedAggregateMVMBatch over the
// repaired planes — is bit-identical to the bit-serial engine when read
// noise is off, for a lone patch and for a batch.
func TestRepairedIntegerMVMMatchesBitSerial(t *testing.T) {
	p := singleLayerPlan(t, 3, 6, 24, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 3))
	fm := &fault.Model{StuckAtZero: 0.02, StuckAtOne: 0.02, Seed: 11}
	pol := repair.Policy{Provision: repair.Provision{SpareCols: 2}}
	rl, err := RepairLayer(la, w, fm, pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{1, 5} {
		ins, fast := aggregateBatch(la, rl.Packed, w, fm, B, 4)
		for k, in := range ins {
			bitSerial, _, _, err := ExecuteMVMRepaired(cfg(), la, w, in, fm, pol)
			if err != nil {
				t.Fatal(err)
			}
			for j := range bitSerial {
				if got := fast[k*w.Cols+j]; got != bitSerial[j] {
					t.Fatalf("B=%d member %d col %d: fast path %v, bit-serial %v", B, k, j, got, bitSerial[j])
				}
			}
		}
	}
}

func TestExecuteMVMRepairedRejectsBadInputs(t *testing.T) {
	p := singleLayerPlan(t, 3, 4, 8, xbar.Square(32))
	la := p.Layers[0]
	w := quant.QuantizeWeights(dnn.SyntheticWeights(la.Layer, 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(la.Layer, 1))
	if _, _, _, err := ExecuteMVMRepaired(cfg(), la, w, in, &fault.Model{StuckAtZero: 2}, repair.Policy{}); err == nil {
		t.Fatal("invalid fault model must error")
	}
	if _, _, _, err := ExecuteMVMRepaired(cfg(), la, w, in, nil, repair.Policy{DetectMissRate: 1}); err == nil {
		t.Fatal("invalid policy must error")
	}
	bad := quant.QuantizeInput(make([]float64, 3))
	if _, _, _, err := ExecuteMVMRepaired(cfg(), la, w, bad, nil, repair.Policy{}); err == nil {
		t.Fatal("wrong input length must error")
	}
}

// End-to-end: a plan provisioned with full spare columns serves a faulty
// network with exactly the fault-free outputs; with no spares the repaired
// run still degrades less than the unrepaired one.
func TestRunInferenceWithRepair(t *testing.T) {
	m := tinyCNN(t)
	st := accel.Homogeneous(m.NumMappable(), xbar.Square(32))
	in := dnn.SyntheticTensor(1, 6, 6, 5)
	fm := &fault.Model{StuckAtZero: 0.02, StuckAtOne: 0.02, Seed: 3}

	clean, err := accel.BuildPlan(cfg(), m, st, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := RunInference(clean, in, InferenceOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := RunInference(clean, in, InferenceOptions{Seed: 5, Faults: fm})
	if err != nil {
		t.Fatal(err)
	}

	// Plan-provisioned spares: policy with zero provision draws the plan's
	// full spare-column budget and restores fault-free outputs exactly.
	spared, err := accel.Build(cfg(), m, accel.PlanSpec{
		Strategy: st, Spares: repair.Provision{SpareCols: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, err := RunInference(spared, in, InferenceOptions{Seed: 5, Faults: fm, Repair: &repair.Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range ref {
		if repaired[j] != ref[j] {
			t.Fatalf("full spares: output %d = %v, fault-free %v", j, repaired[j], ref[j])
		}
	}

	// No spares at all: masking alone must still beat raw faults.
	masked, _, err := RunInference(clean, in, InferenceOptions{Seed: 5, Faults: fm, Repair: &repair.Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	if got, raw := l2Rel(masked, ref), l2Rel(faulty, ref); got >= raw {
		t.Fatalf("masking error %v not below unrepaired %v", got, raw)
	}
}
