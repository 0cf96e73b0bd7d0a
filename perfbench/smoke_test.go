package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test holds the output to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at its tiny size with every output check
// on, untraced, then one traced run (which drives every path, so every
// per-layer metric), and holds each report to the metric names and units
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
			continue
		}
		rep := newBench(w.Name, 7, 1, false, true).execute(run)
		checkReport(t, w.Name, rep, e2e, true)
	}
	rep := newBench("fleet-flat", 7, 1, true, true).execute(workloads["fleet-flat"])
	checkReport(t, "fleet-flat traced", rep, layers, false)
}

func checkReport(t *testing.T, name string, rep report, want map[string]string, nonZero bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
	}
	for k, unit := range want {
		m, ok := rep.Metrics[k]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, k)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, k, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value == 0):
			t.Errorf("%s: metric %s = %v", name, k, m.Value)
		}
	}
	for k := range rep.Metrics {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", name, k)
		}
	}
}
