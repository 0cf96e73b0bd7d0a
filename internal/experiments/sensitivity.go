package experiments

import (
	"fmt"

	"autohet/internal/dnn"
	"autohet/internal/report"
	"autohet/internal/search"
	"autohet/internal/xbar"
)

// Sensitivity analysis (paper §4.4, Fig. 11) on VGG16: AutoHet vs the
// RUE-best homogeneous accelerator (Best-Homo) while varying (a) the
// SXB:RXB candidate ratio, (b) the number of candidates, and (c) the PEs
// per tile. The paper does not list the exact subsets drawn from the
// ten-shape pool, so subsets are taken evenly spaced across each size-
// ordered list (documented in EXPERIMENTS.md).

// spread picks k elements evenly spaced over list (k=1 picks the largest).
func spread(list []xbar.Shape, k int) []xbar.Shape {
	if k <= 0 || k > len(list) {
		panic(fmt.Sprintf("experiments: spread k=%d over %d", k, len(list)))
	}
	if k == 1 {
		return []xbar.Shape{list[len(list)-1]}
	}
	out := make([]xbar.Shape, 0, k)
	for i := 0; i < k; i++ {
		idx := (i*(len(list)-1) + (k-1)/2) / (k - 1)
		out = append(out, list[idx])
	}
	return out
}

// sizeOrderedPool interleaves SXBs and RXBs by ascending cell count.
func sizeOrderedPool() []xbar.Shape {
	sq := xbar.SquareCandidates()
	rx := xbar.RectCandidates()
	out := make([]xbar.Shape, 0, len(sq)+len(rx))
	for i := range sq {
		out = append(out, sq[i], rx[i])
	}
	return out
}

// autoHetVsBestHomo evaluates one sensitivity point: AutoHet searched over
// cands (with sharing) against the best homogeneous SXB accelerator.
func (s *Suite) autoHetVsBestHomo(m *dnn.Model, cands []xbar.Shape, tag string) (auto, homo float64, err error) {
	res, err := s.runSearch(m, cands, true, tag)
	if err != nil {
		return 0, 0, err
	}
	env, err := s.pricingEnv(m, false)
	if err != nil {
		return 0, 0, err
	}
	evals, best, err := search.BestHomogeneous(env, xbar.SquareCandidates())
	if err != nil {
		return 0, 0, err
	}
	return res.BestResult.RUE(), evals[best].Result.RUE(), nil
}

// Fig11a varies the ratio of square to rectangular candidates (2S3R, 3S2R,
// 4S1R) with the total fixed at five.
func (s *Suite) Fig11a() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Fig. 11(a) — RUE vs SXB:RXB candidate ratio (VGG16)",
		Note: "Paper shape: AutoHet beats Best-Homo at every ratio (1.03x–1.27x), " +
			"and more RXBs give larger RUE.",
		Header: []string{"Ratio", "Best-Homo RUE", "AutoHet RUE", "Gain"},
	}
	for _, mix := range []struct{ sxb, rxb int }{{2, 3}, {3, 2}, {4, 1}} {
		cands := append(spread(xbar.SquareCandidates(), mix.sxb), spread(xbar.RectCandidates(), mix.rxb)...)
		tag := fmt.Sprintf("11a-%dS%dR", mix.sxb, mix.rxb)
		auto, homo, err := s.autoHetVsBestHomo(m, cands, tag)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dS%dR", mix.sxb, mix.rxb),
			report.E(homo), report.E(auto), fmt.Sprintf("%.2fx", auto/homo))
	}
	return t, nil
}

// Fig11b varies the number of crossbar candidates (2, 4, 8) drawn evenly
// from the ten-shape mixed pool.
func (s *Suite) Fig11b() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Fig. 11(b) — RUE vs number of candidates (VGG16)",
		Note: "Paper shape: AutoHet beats Best-Homo regardless of candidate count " +
			"(1.15x average), with larger gains from more candidates.",
		Header: []string{"Candidates", "Best-Homo RUE", "AutoHet RUE", "Gain"},
	}
	pool := sizeOrderedPool()
	for _, n := range []int{2, 4, 8} {
		cands := spread(pool, n)
		auto, homo, err := s.autoHetVsBestHomo(m, cands, fmt.Sprintf("11b-%d", n))
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(n), report.E(homo), report.E(auto), fmt.Sprintf("%.2fx", auto/homo))
	}
	return t, nil
}

// Fig11c varies the PEs per tile (8, 16, 32) with the default candidates.
func (s *Suite) Fig11c() (*report.Table, error) {
	m := dnn.VGG16()
	t := &report.Table{
		Title: "Fig. 11(c) — RUE vs PEs per tile (VGG16)",
		Note: "Paper shape: AutoHet's advantage widens with bigger tiles " +
			"(2.24x–4.38x) because tile-based wastage grows and sharing reclaims it.",
		Header: []string{"PEs/tile", "Best-Homo RUE", "AutoHet RUE", "Gain"},
	}
	for _, pes := range []int{8, 16, 32} {
		sub := NewSuite(s.Rounds, s.Seed)
		sub.Cfg.PEsPerTile = pes
		auto, homo, err := sub.autoHetVsBestHomo(m, xbar.DefaultCandidates(), fmt.Sprintf("11c-%d", pes))
		if err != nil {
			return nil, err
		}
		t.AddRow(report.I(pes), report.E(homo), report.E(auto), fmt.Sprintf("%.2fx", auto/homo))
	}
	return t, nil
}
