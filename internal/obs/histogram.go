package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a concurrent latency histogram over geometrically growing
// buckets, promoted from internal/fleet so every subsystem shares one
// implementation. Observations are nanoseconds; quantiles are nearest-rank
// over the bucket boundaries, so a reported quantile is within one
// bucket-growth factor (~7%) of the exact value. The exact running max is
// tracked separately, the overflow bucket reports it instead of a midpoint,
// and no reported quantile ever exceeds it.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	maxBits atomic.Uint64 // float64 bits of the running max
	buckets [histBuckets]atomic.Int64
}

const (
	histMinNS   = 64.0 // lower edge of bucket 1; bucket 0 is [0, histMinNS)
	histGrowth  = 1.07
	histBuckets = 360 // covers up to histMinNS * 1.07^359 ≈ 2.28e12 ns
)

var histLogGrowth = math.Log(histGrowth)

// HistMinNS is the lower edge of bucket 1 (bucket 0 covers [0, HistMinNS)).
// Exported for tests that reason about bucket geometry.
const HistMinNS = histMinNS

// HistMaxEdge is the lower edge of the overflow bucket: samples at or above
// it are clamped into the final bucket and reported via the tracked max.
var HistMaxEdge = histMinNS * math.Pow(histGrowth, histBuckets-2)

// Observe records one latency sample.
func (h *Histogram) Observe(ns float64) {
	if ns < 0 || math.IsNaN(ns) {
		return
	}
	h.count.Add(1)
	addFloat(&h.sumBits, ns)
	maxFloat(&h.maxBits, ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

func bucketIndex(ns float64) int {
	if ns < histMinNS {
		return 0
	}
	i := 1 + int(math.Log(ns/histMinNS)/histLogGrowth)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// addFloat atomically adds v to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// maxFloat atomically raises the float64 stored as bits in a to at least v.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed latencies.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the mean observed latency (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load()) / float64(n)
}

// Max returns the largest observed latency.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile returns the p-quantile (nearest-rank over buckets); interior
// buckets report their geometric midpoint. p outside (0,1] is clamped, and
// Quantile(1) is exactly Max(). Samples clamped into the overflow bucket
// report the tracked max rather than the bucket midpoint, so tail quantiles
// are never underestimated, and every reported quantile is capped at Max()
// so they are never overestimated either.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if p >= 1 {
		return h.Max()
	}
	if p <= 0 {
		p = 1e-9
	}
	rank := int64(math.Ceil(p * float64(n)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == histBuckets-1 {
				// Overflow bucket: its midpoint is meaningless for clamped
				// samples; the tracked max is the honest tail estimate.
				return h.Max()
			}
			mid := histMinNS / 2
			if i > 0 {
				lower := histMinNS * math.Pow(histGrowth, float64(i-1))
				mid = lower * math.Sqrt(histGrowth)
			}
			return math.Min(mid, h.Max())
		}
	}
	return h.Max()
}

// Percentile returns the nearest-rank p-quantile of ascending-sorted
// values (0 for none) — the exact convention every engine's crosscheck
// compares on.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
