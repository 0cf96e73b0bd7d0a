// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each generator returns a report.Table whose note states
// the paper's reported shape so measured rows can be compared directly;
// EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/report"
	"autohet/internal/rl"
	"autohet/internal/search"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Variant names an ablation stage (paper §4.3).
type Variant string

// Ablation stages: Base is the RUE-best homogeneous SXB accelerator; +He
// adds RL-chosen heterogeneous SXBs; +Hy adds rectangular candidates; All
// adds the tile-shared allocation scheme.
const (
	Base Variant = "Base"
	He   Variant = "+He"
	Hy   Variant = "+Hy"
	All  Variant = "All"
)

// Suite runs the experiments with shared, cached search results so related
// figures reuse the same RL runs. The caches are mutex-guarded: generators
// fan out across models/variants/shapes with search.ParallelFor, and the
// parallel units are chosen so concurrent tasks use distinct cache keys
// (a duplicated concurrent miss is deterministic, so at worst it costs a
// redundant evaluation, never a wrong row).
type Suite struct {
	Cfg    hw.Config
	Rounds int   // RL episodes per search (paper: 300)
	Seed   int64 // base RNG seed

	mu          sync.Mutex
	searchCache map[string]*search.Result
	pricing     map[string]*search.Env
}

// NewSuite returns a suite with the paper's §4.1 configuration.
func NewSuite(rounds int, seed int64) *Suite {
	return &Suite{
		Cfg:         hw.DefaultConfig(),
		Rounds:      rounds,
		Seed:        seed,
		searchCache: map[string]*search.Result{},
		pricing:     map[string]*search.Env{},
	}
}

// pricingEnv returns the env that prices fixed strategies of m, one per
// (model name, sharing), created on first use. They are kept apart from
// runSearch's per-search envs so a search's Evals/CacheHits count its own
// work only. EvalStrategy ignores the candidate list.
func (s *Suite) pricingEnv(m *dnn.Model, shared bool) (*search.Env, error) {
	key := fmt.Sprintf("%s|%t", m.Name, shared)
	s.mu.Lock()
	defer s.mu.Unlock()
	if env, ok := s.pricing[key]; ok {
		return env, nil
	}
	env, err := search.NewEnv(s.Cfg, m, xbar.SquareCandidates(), shared)
	if err != nil {
		return nil, err
	}
	s.pricing[key] = env
	return env, nil
}

// evaluate prices a strategy through the model's pricing env. Its result
// need not carry a Plan; tables that read one use evaluatePlan.
func (s *Suite) evaluate(m *dnn.Model, st accel.Strategy, shared bool) (*sim.Result, error) {
	env, err := s.pricingEnv(m, shared)
	if err != nil {
		return nil, err
	}
	return env.Evaluator().EvalStrategy(st)
}

// evaluatePlan is evaluate with the tile plan attached by
// Evaluator.Materialize.
func (s *Suite) evaluatePlan(m *dnn.Model, st accel.Strategy, shared bool) (*sim.Result, error) {
	env, err := s.pricingEnv(m, shared)
	if err != nil {
		return nil, err
	}
	ev := env.Evaluator()
	r, err := ev.EvalStrategy(st)
	if err != nil {
		return nil, err
	}
	return ev.Materialize(r, st, nil)
}

// runSearch runs (or fetches) one RL search. Parallel generators fan out
// over distinct (model, tag) pairs, so concurrent callers never duplicate a
// search; the lock only protects the map itself.
func (s *Suite) runSearch(m *dnn.Model, cands []xbar.Shape, shared bool, tag string) (*search.Result, error) {
	key := fmt.Sprintf("%s|%s|%v|%t|%d", m.Name, tag, xbar.ShapeNames(cands), shared, s.Rounds)
	s.mu.Lock()
	r, ok := s.searchCache[key]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	env, err := search.NewEnv(s.Cfg, m, cands, shared)
	if err != nil {
		return nil, err
	}
	opts := search.DefaultOptions()
	opts.Rounds = s.Rounds
	opts.Agent = rl.DefaultAgentConfig(search.StateDim)
	opts.Agent.Seed = s.Seed
	// Bound per-round learning cost on deep models (ResNet152: 156 layers).
	opts.UpdateStride = m.NumMappable()/16 + 1
	res, err := search.AutoHet(env, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.searchCache[key]; ok {
		return prev, nil
	}
	s.searchCache[key] = res
	return res, nil
}

// variantResult produces the strategy and result of one ablation stage.
func (s *Suite) variantResult(m *dnn.Model, v Variant) (accel.Strategy, *sim.Result, error) {
	switch v {
	case Base:
		env, err := s.pricingEnv(m, false)
		if err != nil {
			return nil, nil, err
		}
		evals, best, err := search.BestHomogeneous(env, xbar.SquareCandidates())
		if err != nil {
			return nil, nil, err
		}
		return evals[best].Strategy, evals[best].Result, nil
	case He:
		res, err := s.runSearch(m, xbar.SquareCandidates(), false, "he")
		if err != nil {
			return nil, nil, err
		}
		return res.Best, res.BestResult, nil
	case Hy:
		res, err := s.runSearch(m, xbar.DefaultCandidates(), false, "hy")
		if err != nil {
			return nil, nil, err
		}
		return res.Best, res.BestResult, nil
	case All:
		res, err := s.runSearch(m, xbar.DefaultCandidates(), true, "all")
		if err != nil {
			return nil, nil, err
		}
		return res.Best, res.BestResult, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown variant %q", v)
	}
}

// Experiment names, in paper order.
var Names = []string{
	"fig3", "fig4", "fig5", "fig9", "fig10",
	"table3", "table4", "fig11a", "fig11b", "fig11c",
	"table5", "searchtime",
}

// Run generates the named experiment's tables.
func (s *Suite) Run(name string) ([]*report.Table, error) {
	switch name {
	case "fig3":
		t, err := s.Fig3()
		return wrap(t, err)
	case "fig4":
		t, err := s.Fig4()
		return wrap(t, err)
	case "fig5":
		t, err := s.Fig5()
		return wrap(t, err)
	case "fig9":
		return s.Fig9()
	case "fig10":
		return s.Fig10()
	case "table3":
		t, err := s.Table3()
		return wrap(t, err)
	case "table4":
		t, err := s.Table4()
		return wrap(t, err)
	case "fig11a":
		t, err := s.Fig11a()
		return wrap(t, err)
	case "fig11b":
		t, err := s.Fig11b()
		return wrap(t, err)
	case "fig11c":
		t, err := s.Fig11c()
		return wrap(t, err)
	case "table5":
		t, err := s.Table5()
		return wrap(t, err)
	case "searchtime":
		t, err := s.SearchTime()
		return wrap(t, err)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
}

func wrap(t *report.Table, err error) ([]*report.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

// sortedShapes returns map keys in deterministic size order.
func sortedShapes(m map[xbar.Shape]int) []xbar.Shape {
	out := make([]xbar.Shape, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].C < out[j].C
	})
	return out
}
