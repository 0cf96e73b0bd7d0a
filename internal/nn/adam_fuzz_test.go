package nn

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzAdamStep checks that adamCoef.step (adam4 on every full block of four
// where the CPU has AVX2, stepGo on the rest) updates parameters and moments
// exactly as stepGo alone does, bit for bit (sameFloat: any two NaNs
// equal), and clears every gradient to +0. Lengths run 1 to 70, steps 1 to
// 10⁵, batch sizes 1 to 256 and learning rates 10⁻⁴ to 10⁻¹. Unless special
// is 0, about one value in special&15 + 1 of the gradients and moments is
// ±0, a subnormal, ±Inf or NaN.
func FuzzAdamStep(f *testing.F) {
	for i, length := range []uint8{1, 3, 4, 5, 11, 12, 64, 69} {
		f.Add(int64(i), uint32(i*i*i*97), uint8(63+i), length, uint8(0))
		f.Add(int64(i)+100, uint32(99999-i), uint8(i), length, uint8(i+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, step uint32, batch, length, special uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(length)%70
		a := Adam{LR: math.Pow(10, -1-3*rng.Float64()), Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, t: 1 + int(step)%100000}
		k := a.coef(1 + int(batch))
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		value := func(scale float64) float64 {
			if special != 0 && rng.Intn(int(special&15)+1) == 0 {
				if r := rng.Intn(len(specials) + 1); r < len(specials) {
					return specials[r]
				}
				sub := math.Float64frombits(uint64(rng.Int63n(1<<52-1)) + 1)
				return math.Copysign(sub, rng.NormFloat64())
			}
			return scale * rng.NormFloat64()
		}
		var w, m, v, g []float64
		for i := 0; i < n; i++ {
			w = append(w, rng.NormFloat64())
			m = append(m, value(1e-2))
			v = append(v, math.Abs(value(1e-4)))
			g = append(g, value(1))
		}
		w2, m2 := append([]float64(nil), w...), append([]float64(nil), m...)
		v2, g2 := append([]float64(nil), v...), append([]float64(nil), g...)
		k.step(w, m, v, g)
		k.stepGo(w2, m2, v2, g2)
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"w", w, w2}, {"m", m, m2}, {"v", v, v2}} {
			if i := diffAt(c.got, c.want); i >= 0 {
				t.Fatalf("length %d, step %d: %s[%d] %v, Go loop %v", n, a.t, c.name, i, c.got[i], c.want[i])
			}
		}
		for i := range g {
			if math.Float64bits(g[i]) != 0 || math.Float64bits(g2[i]) != 0 {
				t.Fatalf("gradient %d not cleared to +0: %v, Go loop %v", i, g[i], g2[i])
			}
		}
	})
}
