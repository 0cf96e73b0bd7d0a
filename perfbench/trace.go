package main

import (
	"math"
	"slices"
	"time"
)

// span is one traced interval around a call the benchmark made into a
// layer's public function (or a phase delimited by the program's own
// callbacks). Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps a traced run's spans in memory until the run ends. A
// nil recorder is tracing off: every method is a no-op, so untraced runs
// pay one nil check per call site.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, time.Now(), time.Time{})
}

// end closes the span begun with id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.origin).Nanoseconds()
}

// add records a span whose bounds were taken elsewhere (from callbacks);
// a zero end leaves it open for end.
func (r *spanRecorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	s := span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start.Sub(r.origin).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.origin).Nanoseconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *spanRecorder) list() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// quantile is the nearest-rank q-quantile of xs (the repo's percentile
// convention); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to float milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
