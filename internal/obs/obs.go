// Package obs is the shared observability layer: a process-wide registry
// of lock-free counters, gauges, and log-bucketed latency histograms (stage
// time is a counter fed by Counter.AddSince), and two exposition paths —
// Prometheus text format over HTTP (cmd/fleet) and JSON snapshots
// (cmd/autohet, cmd/experiments -metrics-json).
//
// Hot paths record through package-level metric handles: one atomic op per
// event and zero allocations, so instrumentation is safe even on the
// zero-alloc warm-MVM path (asserted with testing.AllocsPerRun). Components
// that the evaluation hot loop cannot afford to touch at all publish their
// existing internal atomics through CounterFunc/GaugeFunc instead, which
// costs nothing until a scrape reads them.
//
// Series names follow the Prometheus data model: a metric family name plus
// optional labels baked into the series string, e.g.
//
//	autohet_fleet_requests_total{outcome="shed"}
//	autohet_fleet_queue_depth{replica="g0-1"}
//
// The exposition writer groups series by family (the name up to '{') and
// emits one HELP/TYPE header per family.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// AddSince adds the nanoseconds elapsed since start — the idiom for
// cumulative stage-duration counters.
func (c *Counter) AddSince(start time.Time) { c.v.Add(int64(time.Since(start))) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic float64 value that can move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type series struct {
	kind seriesKind
	name string
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry (or the package-level Default). All methods are safe for
// concurrent use; metric handles returned by the get-or-create methods are
// lock-free on the record path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	cfuncs   map[string]func() int64
	gauges   map[string]*Gauge
	gfuncs   map[string]func() float64
	hists    map[string]*Histogram
	help     map[string]string // per family; first registration wins
	order    []series          // registration order, for stable exposition
}

// Default is the process-wide registry the built-in instrumentation
// (internal/sim, internal/search, internal/fleet, internal/serving) records
// into and the cmd binaries expose.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		cfuncs:   map[string]func() int64{},
		gauges:   map[string]*Gauge{},
		gfuncs:   map[string]func() float64{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// family returns the metric family of a series name: everything up to the
// label block.
func family(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// register records bookkeeping for a new series under r.mu.
func (r *Registry) register(kind seriesKind, name, help string) {
	if f := family(name); r.help[f] == "" {
		r.help[f] = help
	}
	r.order = append(r.order, series{kind: kind, name: name})
}

// Counter returns the named counter, creating it on first use. Re-requesting
// an existing name returns the same handle; requesting a name already held
// by a different metric kind panics (a programming error).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name)
	c := &Counter{}
	r.counters[name] = c
	r.register(kindCounter, name, help)
	return c
}

// RegisterCounter publishes an externally owned counter under name. Unlike
// Counter, re-registering an existing name rebinds the series to the new
// handle — components that are torn down and rebuilt (fleets in tests,
// benchmarks) re-claim their series instead of leaking stale ones.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[name]; !ok {
		r.checkFree(name)
		r.register(kindCounter, name, help)
	}
	r.counters[name] = c
}

// CounterFunc publishes a callback-backed counter — the zero-record-cost
// path for components that already keep their own atomics (e.g. the search
// evaluator). Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cfuncs[name]; !ok {
		r.checkFree(name)
		r.register(kindCounterFunc, name, help)
	}
	r.cfuncs[name] = fn
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name)
	g := &Gauge{}
	r.gauges[name] = g
	r.register(kindGauge, name, help)
	return g
}

// GaugeFunc publishes a callback-backed gauge (evaluated at exposition
// time). Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gfuncs[name]; !ok {
		r.checkFree(name)
		r.register(kindGaugeFunc, name, help)
	}
	r.gfuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name)
	h := &Histogram{}
	r.hists[name] = h
	r.register(kindHistogram, name, help)
	return h
}

// RegisterHistogram publishes an externally owned histogram, rebinding the
// series if the name exists (see RegisterCounter).
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hists[name]; !ok {
		r.checkFree(name)
		r.register(kindHistogram, name, help)
	}
	r.hists[name] = h
}

// checkFree panics when name is already bound to a different metric kind.
// Callers hold r.mu.
func (r *Registry) checkFree(name string) {
	_, c := r.counters[name]
	_, cf := r.cfuncs[name]
	_, g := r.gauges[name]
	_, gf := r.gfuncs[name]
	_, h := r.hists[name]
	if c || cf || g || gf || h {
		panic(fmt.Sprintf("obs: series %q already registered with a different kind", name))
	}
}

// snapshot copies the registry state for exposition, resolving callbacks
// outside r.mu is not possible for funcs bound to live objects, so the
// callbacks themselves are copied and invoked after unlock.
type snapshotEntry struct {
	kind seriesKind
	name string
	ival int64
	fval float64
	hist *Histogram
}

func (r *Registry) snapshot() (entries []snapshotEntry, help map[string]string) {
	r.mu.RLock()
	order := make([]series, len(r.order))
	copy(order, r.order)
	cfuncs := make([]func() int64, len(order))
	gfuncs := make([]func() float64, len(order))
	entries = make([]snapshotEntry, 0, len(order))
	for i, s := range order {
		e := snapshotEntry{kind: s.kind, name: s.name}
		switch s.kind {
		case kindCounter:
			e.ival = r.counters[s.name].Load()
		case kindCounterFunc:
			cfuncs[i] = r.cfuncs[s.name]
		case kindGauge:
			e.fval = r.gauges[s.name].Load()
		case kindGaugeFunc:
			gfuncs[i] = r.gfuncs[s.name]
		case kindHistogram:
			e.hist = r.hists[s.name]
		}
		entries = append(entries, e)
	}
	help = make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()
	// Callbacks run outside the lock: they may take their component's own
	// locks, and nothing stops them registering further metrics.
	for i := range entries {
		switch entries[i].kind {
		case kindCounterFunc:
			entries[i].ival = cfuncs[i]()
		case kindGaugeFunc:
			entries[i].fval = gfuncs[i]()
		}
	}
	return entries, help
}

// Families returns the sorted metric family names currently registered —
// handy for smoke tests asserting required families are present.
func (r *Registry) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[string]bool{}
	for _, s := range r.order {
		seen[family(s.name)] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
