package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/xbar"
)

// TestGoldenSearchHistory pins a short seeded VGG16 search (default
// candidates, default agent) by a SHA-256 over the float64 bits of every
// round's RUE and reward. The digest was recorded on the per-sample DDPG
// update the batched one replaced: the search trajectory must not move.
func TestGoldenSearchHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("RL search")
	}
	env := testEnv(t, dnn.VGG16(), xbar.DefaultCandidates(), true)
	opts := DefaultOptions()
	opts.Rounds = 12
	opts.Agent.Seed = 1001
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, r := range res.History {
		for _, x := range []float64{r.RUE, r.Reward} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "296172fc8ee88c617d338fe4f56bb3c91f996dcf4fe224117410d5ccdac2d1c7"
	if got != want {
		t.Fatalf("search history digest %s, want %s (best RUE %v)", got, want, res.BestResult.RUE())
	}
}

// hashBest digests a co-search's best point: the float64 bits of its RUE
// and energy, the strategy's string form, the per-layer choice vector (as
// float64 bits) and the budget metric (mean bits or kept weights).
func hashBest(rue, energy float64, strategy string, choices []float64, budget float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	put(rue)
	put(energy)
	h.Write([]byte(strategy))
	for _, x := range choices {
		put(x)
	}
	put(budget)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenMixedPrecision pins a seeded VGG16 shape × bit-width search
// (default candidates and bit choices, shared tiles) by its best point.
func TestGoldenMixedPrecision(t *testing.T) {
	env := testEnv(t, dnn.VGG16(), xbar.DefaultCandidates(), true)
	opts := DefaultMPOptions()
	opts.Rounds = 60
	opts.Seed = 7
	res, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]float64, len(res.Precision))
	for i, b := range res.Precision {
		bits[i] = float64(b)
	}
	got := hashBest(res.Result.RUE(), res.Result.EnergyNJ, fmt.Sprint(res.Strategy), bits, res.MeanBits)
	const want = "8c72d1b417b7cf49c18cba20e63a2c12fd72c791a29de844be955c667c3d9e7c"
	if got != want {
		t.Fatalf("mixed-precision digest %s, want %s (best RUE %v)", got, want, res.Result.RUE())
	}
}

// TestGoldenPruneSearch pins a seeded AlexNet shape × keep-ratio search
// (default candidates and keep choices, shared tiles) by its best point.
func TestGoldenPruneSearch(t *testing.T) {
	opts := DefaultPruneOptions()
	opts.Rounds = 60
	opts.Seed = 7
	res, err := PruneSearch(hw.DefaultConfig(), dnn.AlexNet(), xbar.DefaultCandidates(), true, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := hashBest(res.Result.RUE(), res.Result.EnergyNJ, fmt.Sprint(res.Strategy), res.Keep, res.KeptWeights)
	const want = "c89e241599aeccd3de9c9642a1fefe09e60f34817d5034b93484476940090285"
	if got != want {
		t.Fatalf("prune-search digest %s, want %s (best RUE %v)", got, want, res.Result.RUE())
	}
}
