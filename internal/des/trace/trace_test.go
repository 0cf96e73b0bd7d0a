package trace

import (
	"math"
	"math/rand"
	"testing"
)

// gaps draws n gaps from a fresh generator.
func gaps(t *testing.T, name string, rate float64, seed int64, n int) []float64 {
	t.Helper()
	g, err := Parse(name, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.NextGapNS()
		if !(out[i] > 0) || math.IsInf(out[i], 0) {
			t.Fatalf("%s gap %d = %v", name, i, out[i])
		}
	}
	return out
}

// Same seed, same trace — the determinism contract every DES replay rests on.
func TestDeterministicPerSeed(t *testing.T) {
	for _, name := range Names {
		a := gaps(t, name, 1e6, 7, 2000)
		b := gaps(t, name, 1e6, 7, 2000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: gap %d differs across replays: %v vs %v", name, i, a[i], b[i])
			}
		}
		c := gaps(t, name, 1e6, 8, 2000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced an identical trace", name)
		}
	}
}

// Every generator is normalized to the requested mean rate. Bursty is
// built with a short dwell here so the sample spans many phases (the Parse
// default's 50 ms phases mix too slowly for a 200k-sample mean), and the
// infinite-variance Pareto gets a wider band.
func TestMeanRate(t *testing.T) {
	const rate, n = 1e6, 200000
	cases := []struct {
		gen Generator
		tol float64
	}{
		{Poisson(rate, 3), 0.05},
		{Diurnal(rate, 0.7, 10e9, 3), 0.05},
		{Bursty(rate, 1.8, 5e4, 3), 0.05},
		{Pareto(rate, 1.5, 3), 0.25},
	}
	for _, c := range cases {
		var sum float64
		for i := 0; i < n; i++ {
			sum += c.gen.NextGapNS()
		}
		got := float64(n) / sum * 1e9
		if math.Abs(got-rate)/rate > c.tol {
			t.Errorf("%s: empirical rate %.0f, want %.0f ± %.0f%%", c.gen.Name(), got, rate, 100*c.tol)
		}
	}
}

// Bursty and Pareto arrivals are overdispersed relative to Poisson: counts
// in fixed windows have a variance-to-mean ratio (index of dispersion)
// well above 1, which is what stresses queues and admission control.
func TestDispersionOrdering(t *testing.T) {
	const rate = 1e6
	dispersion := func(name string) float64 {
		g, err := Parse(name, rate, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Count arrivals in 2000 windows of 100 expected arrivals each.
		const windows, windowNS = 2000, 100 * 1000.0
		counts := make([]float64, windows)
		now, w := 0.0, 0
		for w < windows {
			now += g.NextGapNS()
			w = int(now / windowNS)
			if w < windows {
				counts[w]++
			}
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= windows
		var varc float64
		for _, c := range counts {
			varc += (c - mean) * (c - mean)
		}
		varc /= windows
		return varc / mean
	}
	poisson := dispersion("poisson")
	if poisson < 0.7 || poisson > 1.3 {
		t.Fatalf("poisson index of dispersion %.2f, want ~1", poisson)
	}
	for _, name := range []string{"bursty", "pareto"} {
		if d := dispersion(name); d < 1.5 {
			t.Errorf("%s index of dispersion %.2f, want overdispersed (> 1.5)", name, d)
		}
	}
}

// The diurnal process actually modulates: the peak-phase window rate beats
// the trough-phase rate by roughly (1+amp)/(1-amp).
func TestDiurnalModulation(t *testing.T) {
	const rate, period = 1e6, 10e9
	g := Diurnal(rate, 0.7, period, 9)
	// First quarter of the cycle is near peak, third quarter near trough.
	var peak, trough int
	now := 0.0
	for now < 3*period {
		now += g.NextGapNS()
		phase := math.Mod(now, period) / period
		switch {
		case phase < 0.5:
			peak++
		default:
			trough++
		}
	}
	ratio := float64(peak) / float64(trough)
	if ratio < 1.5 {
		t.Fatalf("peak/trough arrival ratio %.2f, want clear modulation (> 1.5)", ratio)
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := Parse("uniform", 1e6, 1); err == nil {
		t.Fatal("unknown generator accepted")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, name := range Names {
			if _, err := Parse(name, rate, 1); err == nil {
				t.Errorf("Parse(%q) accepted rate %v", name, rate)
			}
		}
	}
}

// Poisson gaps match the serving.Serve arrival construction bit for bit:
// rand.New(NewSource(seed)).ExpFloat64() * meanGap. This identity is what
// the DES-vs-serving cross-check rides on.
func TestPoissonMatchesServingConvention(t *testing.T) {
	const rate = 2e6
	g := Poisson(rate, 42)
	rng := rand.New(rand.NewSource(42))
	meanGap := 1e9 / rate
	for i := 0; i < 100; i++ {
		want := rng.ExpFloat64() * meanGap
		if got := g.NextGapNS(); got != want {
			t.Fatalf("gap %d: %v, want %v", i, got, want)
		}
	}
}
