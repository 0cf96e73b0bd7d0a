package isa

import (
	"math"
	"strings"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

func TestTimeTracksPlanLatency(t *testing.T) {
	// The GC-level estimate's FIRE+MERGE portion must equal the plan-level
	// simulator latency (same model, different decomposition).
	m := dnn.VGG16()
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(16, xbar.Square(128)), true)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Time(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Simulate(p)
	if err != nil {
		t.Fatal(err)
	}
	var fireMerge float64
	for _, c := range tp.Costs {
		if !c.Overlapped && (c.Instr.Op == OpFIRE || c.Instr.Op == OpMERGE) {
			fireMerge += c.Latency
		}
	}
	if math.Abs(fireMerge-r.LatencyNS) > 1e-6*r.LatencyNS {
		t.Fatalf("FIRE+MERGE %v != simulator latency %v", fireMerge, r.LatencyNS)
	}
	// The full GC estimate adds buffer/pool overheads on top.
	if tp.InferenceNS <= r.LatencyNS {
		t.Fatalf("GC inference %v should exceed bare crossbar latency %v", tp.InferenceNS, r.LatencyNS)
	}
	if tp.ProgramNS <= 0 {
		t.Fatal("prologue time missing")
	}
}

func TestTimeOverlapsSameLayerFires(t *testing.T) {
	m := dnn.VGG16()
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(16, xbar.Square(64)), false)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := Compile(p)
	tp, err := Time(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	perLayerOnPath := map[int32]int{}
	for _, c := range tp.Costs {
		if c.Instr.Op == OpFIRE && !c.Overlapped {
			perLayerOnPath[c.Instr.A]++
		}
	}
	for layer, n := range perLayerOnPath {
		if n != 1 {
			t.Fatalf("layer %d has %d on-path FIREs, want 1", layer, n)
		}
	}
	// Critical path excludes all overlapped instructions.
	for _, c := range tp.CriticalPath() {
		if c.Overlapped {
			t.Fatal("critical path contains overlapped instruction")
		}
	}
}

func TestTimeRejectsBadPrograms(t *testing.T) {
	p := tinyPlan(t)
	for name, bad := range badPrograms(t, p) {
		if _, err := Time(bad.prog, p); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: Time error %v, want %q", name, err, bad.want)
		}
	}
	good, _ := Compile(p)
	p.Layers[0].Placements = nil
	if _, err := Time(good, p); err == nil {
		t.Fatal("invalid plan must error")
	}
}
