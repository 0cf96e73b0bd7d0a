package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"autohet/internal/dnn"
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
