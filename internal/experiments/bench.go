package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"autohet/internal/dnn"
	"autohet/internal/rl"
	"autohet/internal/search"
	"autohet/internal/xbar"
)

// BenchLeg records one measured search configuration of the benchmark.
type BenchLeg struct {
	Cached       bool    `json:"cached"`
	WallSeconds  float64 `json:"wall_seconds"`
	SimSeconds   float64 `json:"sim_seconds"` // summed worker time, can exceed wall
	RoundsPerSec float64 `json:"rounds_per_sec"`
	Evals        int64   `json:"evals"`
	CacheHits    int64   `json:"cache_hits"`
	HitRate      float64 `json:"hit_rate"`
	RUE          float64 `json:"rue"` // winner's RUE, to confirm identical outcomes
}

// SearchBench is the JSON document cmd/experiments -bench-json writes: the
// paper's §4.5 search-cost experiment re-run through the memoized + parallel
// evaluation engine, cached vs uncached on the same model and seed.
type SearchBench struct {
	Model      string   `json:"model"`
	Rounds     int      `json:"rounds"`
	Seed       int64    `json:"seed"`
	Workers    int      `json:"workers"` // GOMAXPROCS during the run
	Candidates string   `json:"candidates"`
	Uncached   BenchLeg `json:"uncached"`
	Cached     BenchLeg `json:"cached"`
	// Speedup is uncached wall time over cached wall time for the same
	// search trajectory.
	Speedup float64 `json:"speedup"`
}

// benchLeg runs one full AutoHet search on a fresh env and measures it.
func (s *Suite) benchLeg(m *dnn.Model, cands []xbar.Shape, cached bool) (BenchLeg, error) {
	env, err := search.NewEnv(s.Cfg, m, cands, true)
	if err != nil {
		return BenchLeg{}, err
	}
	env.NoCache = !cached
	opts := search.DefaultOptions()
	opts.Rounds = s.Rounds
	opts.Agent = rl.DefaultAgentConfig(search.StateDim)
	opts.Agent.Seed = s.Seed
	opts.UpdateStride = m.NumMappable()/16 + 1
	start := time.Now()
	res, err := search.AutoHet(env, opts)
	if err != nil {
		return BenchLeg{}, err
	}
	wall := time.Since(start).Seconds()
	leg := BenchLeg{
		Cached:      cached,
		WallSeconds: wall,
		SimSeconds:  res.Stats.SimTime.Seconds(),
		Evals:       res.Stats.Evals,
		CacheHits:   res.Stats.CacheHits,
		HitRate:     res.Stats.HitRate(),
		RUE:         res.BestResult.RUE(),
	}
	if wall > 0 {
		leg.RoundsPerSec = float64(s.Rounds) / wall
	}
	return leg, nil
}

// BenchSearch measures the evaluation engine's effect on search cost: the
// same VGG16 RL search (same seed, same trajectory) once with the engine's
// caches disabled and once enabled. The uncached leg reproduces the paper's
// observation that simulator feedback dominates search time (97%, §4.5);
// the cached leg is this repo's answer to it.
func BenchSearch(rounds int, seed int64) (*SearchBench, error) {
	s := NewSuite(rounds, seed)
	m := dnn.VGG16()
	cands := xbar.DefaultCandidates()
	b := &SearchBench{
		Model:      m.Name,
		Rounds:     rounds,
		Seed:       seed,
		Workers:    runtime.GOMAXPROCS(0),
		Candidates: xbar.ShapeNames(cands),
	}
	var err error
	if b.Uncached, err = s.benchLeg(m, cands, false); err != nil {
		return nil, err
	}
	if b.Cached, err = s.benchLeg(m, cands, true); err != nil {
		return nil, err
	}
	if b.Cached.WallSeconds > 0 {
		b.Speedup = b.Uncached.WallSeconds / b.Cached.WallSeconds
	}
	if b.Uncached.RUE != b.Cached.RUE {
		return nil, fmt.Errorf("experiments: bench legs diverged: uncached RUE %v, cached RUE %v",
			b.Uncached.RUE, b.Cached.RUE)
	}
	return b, nil
}

// WriteJSON writes the benchmark document to path (indented, trailing
// newline) so CI and EXPERIMENTS.md recipes can archive it.
func (b *SearchBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
