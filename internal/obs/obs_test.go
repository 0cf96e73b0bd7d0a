package obs

import (
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total", "help a")
	c2 := r.Counter("a_total", "other help ignored")
	if c1 != c2 {
		t.Fatal("Counter must return the same handle for the same name")
	}
	c1.Add(5)
	if c2.Load() != 5 {
		t.Fatalf("shared handle out of sync: %d", c2.Load())
	}
	g := r.Gauge("b", "help b")
	g.Set(2.5)
	if r.Gauge("b", "").Load() != 2.5 {
		t.Fatal("Gauge must return the same handle for the same name")
	}
	h := r.Histogram("c_ns", "help c")
	h.Observe(100)
	if r.Histogram("c_ns", "").Count() != 1 {
		t.Fatal("Histogram must return the same handle for the same name")
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter name must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestRegistryRebind(t *testing.T) {
	r := NewRegistry()
	var c1, c2 Counter
	c1.Add(10)
	c2.Add(20)
	r.RegisterCounter("ext_total", "", &c1)
	r.RegisterCounter("ext_total", "", &c2) // rebuilt component re-claims the series
	snap := r.JSON()
	if snap.Counters["ext_total"] != 20 {
		t.Fatalf("rebind: got %d, want 20", snap.Counters["ext_total"])
	}
	n := 0
	r.CounterFunc("fn_total", "", func() int64 { n++; return int64(n) })
	r.CounterFunc("fn_total", "", func() int64 { return 42 })
	if got := r.JSON().Counters["fn_total"]; got != 42 {
		t.Fatalf("CounterFunc replace: got %d, want 42", got)
	}
	if n != 0 {
		t.Fatal("replaced callback was invoked")
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`f_total{k="a"}`, "")
	r.Counter(`f_total{k="b"}`, "")
	r.Gauge("g", "")
	fams := r.Families()
	if len(fams) != 2 || fams[0] != "f_total" || fams[1] != "g" {
		t.Fatalf("Families() = %v", fams)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{outcome="ok"}`, "request outcomes").Add(3)
	r.Counter(`req_total{outcome="shed"}`, "request outcomes").Add(1)
	r.Gauge("depth", "queue depth").Set(7)
	r.GaugeFunc("health", "replica health", func() float64 { return 0.5 })
	h := r.Histogram("lat_ns", "latency")
	h.Observe(1000)
	h.Observe(2000)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP req_total request outcomes\n",
		"# TYPE req_total counter\n",
		`req_total{outcome="ok"} 3` + "\n",
		`req_total{outcome="shed"} 1` + "\n",
		"# TYPE depth gauge\n",
		"depth 7\n",
		"health 0.5\n",
		"# TYPE lat_ns summary\n",
		`lat_ns{quantile="0.5"}`,
		"lat_ns_sum 3000\n",
		"lat_ns_count 2\n",
		"# TYPE lat_ns_max gauge\n",
		"lat_ns_max 2000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One header per family, not per series.
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

func TestPrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat_ns{replica="g0-1"}`, "")
	h.Observe(500)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`lat_ns{replica="g0-1",quantile="0.5"}`,
		`lat_ns_sum{replica="g0-1"} 500`,
		`lat_ns_count{replica="g0-1"} 1`,
		`lat_ns_max{replica="g0-1"} 500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled summary missing %q in:\n%s", want, out)
		}
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(9)
	r.CounterFunc("cf_total", "", func() int64 { return 11 })
	r.Gauge("g", "").Set(1.5)
	h := r.Histogram("h_ns", "")
	h.Observe(100)
	h.Observe(300)
	s := r.JSON()
	if s.Counters["c_total"] != 9 || s.Counters["cf_total"] != 11 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if s.Gauges["g"] != 1.5 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	hs := s.Histograms["h_ns"]
	if hs.Count != 2 || hs.Mean != 200 || hs.Max != 300 {
		t.Fatalf("histogram stats: %+v", hs)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"c_total": 9`) {
		t.Fatalf("WriteJSON output:\n%s", b.String())
	}
}
