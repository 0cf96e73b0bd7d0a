//go:build amd64

package nn

// dense4x8 computes four samples by 8·blocks outputs of a dense layer:
// y[m·out + 8p + c] = act(Σ_k W[8p+c][k]·x[m·in + k] + bias[8p+c]) for
// samples m = 0…3, where act is ReLU if relu is set and the identity
// otherwise. wt holds the rows as packPanels lays them out. Every
// (sample, output) lane is its own accumulator: it starts at +0 and adds the
// products in k order, one rounded multiply and one rounded add per step,
// then adds the bias, exactly as the scalar loops do. in and blocks must be
// ≥ 1. AVX2 only — callers gate on cpufeat.AVX2.
//
//go:noescape
func dense4x8(wt, x, y, bias *float64, in, out, blocks int, relu bool)

// axpy32 adds n scaled rows into 32 accumulators in order: for i = 0…n−1,
// acc[c] += s[i]·a[off[i] + c] for c = 0…31, one rounded multiply and one
// rounded add per row, as axpy's loop does. n must be ≥ 1. AVX2 only —
// callers gate on cpufeat.AVX2.
//
//go:noescape
func axpy32(acc, a *float64, off *int, s *float64, n int)

// axpy8 and axpy4 are axpy32 for blocks of 8 and 4 columns.
//
//go:noescape
func axpy8(acc, a *float64, off *int, s *float64, n int)

//go:noescape
func axpy4(acc, a *float64, off *int, s *float64, n int)

// reluDeriv4 multiplies d[i] by 1 where y[i] > 0 and by +0 elsewhere, for
// i < 4n, as Activation.mulDerivative's ReLU loop does. n must be ≥ 1. AVX2
// only.
//
//go:noescape
func reluDeriv4(d, y *float64, n int)

// lerp4 sets d[i] = a·d[i] + b·s[i] for i < 4n, as lerp's loop does. n must
// be ≥ 1. AVX2 only.
//
//go:noescape
func lerp4(d, s *float64, n int, a, b float64)

// adam4 runs adamCoef.stepGo's update on the first 4n parameters. n must be
// ≥ 1. AVX2 only.
//
//go:noescape
func adam4(w, m, v, gr *float64, n int, k *adamCoef)
