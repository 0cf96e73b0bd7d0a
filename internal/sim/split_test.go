package sim

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/xbar"
)

// atProcs runs f with GOMAXPROCS set to procs and restores it.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// zooPlan maps m homogeneously on 128×128 crossbars, as perfbench does.
func zooPlan(t testing.TB, m *dnn.Model) *accel.Plan {
	t.Helper()
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(128)), true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// narrowNets are chained models whose parallel layers take the column
// split on narrow weight matrices: "narrow-conv" ends on a conv layer of
// four 8×8×64 windows into 40 columns (two full 16-column blocks and a
// padded one) and "narrow-fc" on an FC layer of 32768 rows into 12 columns
// (one padded block), each followed by a small FC layer.
func narrowNets(t testing.TB) []*accel.Plan {
	t.Helper()
	specs := []struct {
		name   string
		layers []*dnn.Layer
	}{
		{"narrow-conv", []*dnn.Layer{
			{Name: "c1", Kind: dnn.Conv, K: 3, InC: 3, OutC: 64, Stride: 1, Pad: 1},
			{Name: "p1", Kind: dnn.Pool, K: 2, Stride: 2},
			{Name: "c2", Kind: dnn.Conv, K: 8, InC: 64, OutC: 40, Stride: 8},
			{Name: "f1", Kind: dnn.FC, K: 1, InC: 40 * 2 * 2, OutC: 10, Stride: 1},
		}},
		{"narrow-fc", []*dnn.Layer{
			{Name: "c1", Kind: dnn.Conv, K: 3, InC: 3, OutC: 32, Stride: 1, Pad: 1},
			{Name: "f1", Kind: dnn.FC, K: 1, InC: 32 * 32 * 32, OutC: 12, Stride: 1},
			{Name: "f2", Kind: dnn.FC, K: 1, InC: 12, OutC: 10, Stride: 1},
		}},
	}
	plans := make([]*accel.Plan, len(specs))
	for i, s := range specs {
		m, err := dnn.NewModel(s.name, 32, 32, 3, s.layers)
		if err != nil {
			t.Fatal(err)
		}
		p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(64)), true)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	return plans
}

// columnSplitLayers lists the mappable layers of p that run the column
// split for a batch of b inputs on the given worker count.
func columnSplitLayers(p *accel.Plan, b, workers int) []*dnn.Layer {
	var split []*dnn.Layer
	for _, l := range p.Model.Mappable() {
		n := b
		if l.Kind == dnn.Conv {
			n *= l.OutputPositions()
		}
		rows := l.InC * l.K * l.K
		if parallelWorth(n, rows, l.OutC) && columnSplit(n, min(DefaultKernelBatch, n), workers) {
			split = append(split, l)
		}
	}
	return split
}

// The fast mode's outputs must not depend on the worker count: at
// GOMAXPROCS 1 every layer runs the member split on one goroutine, at 2
// and 4 the narrow layers run the column split. VGG16 (batch 1 and 3)
// and the narrow nets — a conv layer of 40 columns and an FC layer of 12 —
// must give the same bits at all three, under the default kernel batch and
// a cap of 3, which cuts a column split's members into uneven kernel
// batches. The narrow nets are also checked against the bit-exact
// crossbar pipeline, and each net has a layer the column split takes (on
// hosts with the blocked kernel; elsewhere every layer splits by members).
func TestFastModeSameAtEveryGOMAXPROCS(t *testing.T) {
	plans := append([]*accel.Plan{zooPlan(t, dnn.VGG16())}, narrowNets(t)...)
	opts := InferenceOptions{Seed: 5}
	for _, p := range plans {
		m := p.Model
		eng := NewEngine(p)
		for _, b := range []int{1, 3} {
			if len(columnSplitLayers(p, b, 2)) == 0 {
				t.Fatalf("%s batch %d: no layer takes the column split on two workers", m.Name, b)
			}
			inputs := make([]*dnn.Tensor, b)
			for i := range inputs {
				inputs[i] = dnn.SyntheticTensor(m.InC, m.InH, m.InW, int64(10+i))
			}
			var want [][]float64
			atProcs(1, func() {
				var err error
				if want, _, err = eng.RunBatch(inputs, opts); err != nil {
					t.Fatal(err)
				}
			})
			if m.Name != "VGG16" {
				exact, _, err := eng.RunBatch(inputs, InferenceOptions{Seed: 5, BitExact: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := range exact {
					sameOutputs(t, fmt.Sprintf("%s batch %d input %d: fast vs bit-exact", m.Name, b, i), want[i], exact[i])
				}
			}
			for _, procs := range []int{1, 2, 4} {
				for _, kb := range []int{DefaultKernelBatch, 3} {
					atProcs(procs, func() {
						got, _, err := eng.runBatch(inputs, opts, kb)
						if err != nil {
							t.Fatal(err)
						}
						for i := range got {
							sameOutputs(t, fmt.Sprintf("%s batch %d input %d GOMAXPROCS %d kb %d", m.Name, b, i, procs, kb), got[i], want[i])
						}
					})
				}
			}
		}
	}
}

// sharedLines returns the output columns e (block edges inside a row) at
// which two workers of a column split over cols columns, on the given
// worker count, write the same 64-byte line of member k's output row, for a
// row-major float64 output whose row 0 starts on a line.
func sharedLines(cols, k, workers int) []int {
	blocks := (cols + 15) / 16
	parts := min(blocks, workers)
	var edges []int
	for r := 0; r+1 < parts; r++ {
		_, b1 := span(r, parts, blocks)
		if e := 16 * b1; (k*cols+e)*8%64 != 0 {
			edges = append(edges, e)
		}
	}
	return edges
}

// No two workers of a column split write the same 64-byte line of one
// output row: their ranges meet at block edges, 128 bytes apart, so a row
// that starts on a line keeps them apart. The one exception the layout
// allows is named here: a member row after the first of a layer whose
// Cols is not a multiple of 8 starts inside a line, and so do its edges.
// No layer of VGG16 or AlexNet that takes the column split at batch 1 or 3,
// on 2 or 4 workers, meets it; a 20-column layer does, at member 1's
// edge. The engine's activation slabs, which hold every layer's output,
// start on a line.
func TestColumnSplitKeepsWorkersOffSharedLines(t *testing.T) {
	for _, m := range []*dnn.Model{dnn.VGG16(), dnn.AlexNet()} {
		p := zooPlan(t, m)
		for _, b := range []int{1, 3} {
			for _, workers := range []int{2, 4} {
				for _, l := range columnSplitLayers(p, b, workers) {
					n := b
					if l.Kind == dnn.Conv {
						n *= l.OutputPositions()
					}
					for k := 0; k < n; k++ {
						if edges := sharedLines(l.OutC, k, workers); len(edges) > 0 {
							t.Errorf("%s %s batch %d, %d workers: member %d shares lines at columns %v", m.Name, l.Name, b, workers, k, edges)
						}
					}
				}
			}
		}
		eng := NewEngine(p)
		if _, _, err := eng.Run(dnn.SyntheticTensor(m.InC, m.InH, m.InW, 1), InferenceOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for _, slab := range eng.slabs.free[0].slabs {
			if a := uintptr(unsafe.Pointer(&slab[0])); a%64 != 0 {
				t.Errorf("%s: activation slab starts at %#x, off a 64-byte line", m.Name, a)
			}
		}
	}
	if e := sharedLines(20, 0, 2); len(e) != 0 {
		t.Errorf("20 columns, member 0: shared lines at %v", e)
	}
	if e := sharedLines(20, 1, 2); len(e) != 1 || e[0] != 16 {
		t.Errorf("20 columns, member 1: shared lines at %v, want the named edge at column 16", e)
	}
}

// A warm batch-1 fast-mode RunBatch allocates only its returned outputs and
// the closures each layer hands the worker pool: the fan-out state, the
// per-worker stats and the layer's execution state are reused, so the
// count does not grow with the worker count. Before they were reused,
// two workers made 35 allocations on AlexNet and 69 on VGG16.
func TestRunBatchWarmAllocsBatch1(t *testing.T) {
	for _, c := range []struct {
		m   *dnn.Model
		max float64
	}{{dnn.AlexNet(), 27}, {dnn.VGG16(), 53}} {
		eng := NewEngine(zooPlan(t, c.m))
		in := []*dnn.Tensor{dnn.SyntheticTensor(c.m.InC, c.m.InH, c.m.InW, 1)}
		opts := InferenceOptions{Seed: 1}
		for _, procs := range []int{2, 4} {
			atProcs(procs, func() {
				for range 2 {
					if _, _, err := eng.RunBatch(in, opts); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, _, err := eng.RunBatch(in, opts); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > c.max {
					t.Errorf("%s, GOMAXPROCS %d: warm batch-1 RunBatch makes %v allocations, want ≤ %v", c.m.Name, procs, allocs, c.max)
				}
			})
		}
	}
}
