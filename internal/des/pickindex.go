package des

import (
	"math"
	"math/bits"
)

// Indexed least-score dispatch. JoinShortestQueue and LeastOutstanding pick
// the first candidate with the least score, (queue + 1)/health or
// (queue + in-flight + 1)/health. Scanning for it costs O(group) per pick.
// Instead, each routing group keeps a tournament tree over its replicas:
// a cluster's replicas, or a pipeline stage's when Shards > 1. Both are
// contiguous runs of Fleet.replicas. Each internal node holds the winner
// of its two children, and the right child wins only on a strict <. The
// root is therefore the first index with the least key, which is exactly
// what the scan in choose returns. A pick reads the root. A score change
// replays the matches above one leaf, in O(log group).
//
// A replica that takes no traffic keys +Inf, so the tree covers the
// filtered candidate set too. A dispatchable replica with subnormal health
// also scores +Inf, and the scan then returns the first candidate instead,
// so an +Inf root defers to the scan. Breaker-filtered picks depend on the
// time of the pick, so fleets with breakers build no tree, nor do RR and
// P2C fleets.

// pickNode is one tournament-tree node: the least key in its subtree and
// the index in Fleet.replicas of the first replica holding it.
type pickNode struct {
	key float64
	rep int32
}

// pickIndex is the fleet's set of tournament trees. Tree g covers routing
// group g in 2P nodes, P the group size rounded up to a power of two:
// node 1 is the root, node i has children 2i and 2i+1, and the leaves
// P..2P-1 hold the group's replicas in order, then +Inf padding. Every
// tree is a slice of one backing array.
type pickIndex struct {
	load  bool         // LeastOutstanding: keys count the executing batch
	trees [][]pickNode // one per routing group, in replica order
}

// indexPicks builds the trees of a JSQ or least-outstanding fleet without
// breakers: one per pipeline stage when sharded (picks stay within a
// stage), else one per cluster.
func (f *Fleet) indexPicks(clusterBounds []int) {
	p := f.cfg.Policy
	if p != JoinShortestQueue && p != LeastOutstanding || f.breakersOn {
		return
	}
	if f.cfg.Shards > 1 {
		f.pick = newPickIndex(p == LeastOutstanding, f.replicas, f.stageLo)
		return
	}
	f.pick = newPickIndex(p == LeastOutstanding, f.replicas, clusterBounds)
	for i, cl := range f.clusters {
		cl.tree = f.pick.trees[i]
	}
}

// newPickIndex lays out one tree per group bounds[g]..bounds[g+1] of
// replicas and points each replica at its leaf. rebuild fills the keys.
func newPickIndex(load bool, replicas []*simReplica, bounds []int) *pickIndex {
	groups := len(bounds) - 1
	total := 0
	for g := 0; g < groups; g++ {
		total += 2 * treeWidth(bounds[g+1]-bounds[g])
	}
	x := &pickIndex{load: load, trees: make([][]pickNode, groups)}
	nodes := make([]pickNode, total)
	for g := range x.trees {
		lo, hi := bounds[g], bounds[g+1]
		p := treeWidth(hi - lo)
		t := nodes[: 2*p : 2*p]
		nodes = nodes[2*p:]
		for i := p + hi - lo; i < 2*p; i++ {
			t[i] = pickNode{key: math.Inf(1), rep: -1}
		}
		for j, r := range replicas[lo:hi] {
			r.tree, r.leaf = t, p+j
		}
		x.trees[g] = t
	}
	return x
}

// treeWidth is the leaf count of a group of n ≥ 1 replicas: n rounded up
// to a power of two.
func treeWidth(n int) int { return 1 << bits.Len(uint(n-1)) }

// key is r's routing key: its policy score while it takes traffic, +Inf
// otherwise.
func (x *pickIndex) key(r *simReplica) float64 {
	switch {
	case !r.dispatchable():
		return math.Inf(1)
	case x.load:
		return r.loadScore()
	}
	return r.queueScore()
}

// fix rescores r's leaf and replays the matches above it, stopping at the
// first node whose winner does not change.
func (x *pickIndex) fix(r *simReplica) {
	t, i := r.tree, r.leaf
	t[i].key = x.key(r)
	for i > 1 {
		i >>= 1
		w := match(t, i)
		if t[i] == w {
			return
		}
		t[i] = w
	}
}

// match plays node i's match: the right child wins only on a strictly
// smaller key, so ties go to the lower replica index.
func match(t []pickNode, i int) pickNode {
	if r := t[2*i+1]; r.key < t[2*i].key {
		return r
	}
	return t[2*i]
}

// rebuild rescores every leaf and replays every match, bottom up.
func (x *pickIndex) rebuild(replicas []*simReplica) {
	for _, r := range replicas {
		r.tree[r.leaf] = pickNode{key: x.key(r), rep: int32(r.id)}
	}
	for _, t := range x.trees {
		for i := len(t)/2 - 1; i >= 1; i-- {
			t[i] = match(t, i)
		}
	}
}

// root returns tree t's winner, or nil when its key is +Inf: no candidate,
// or only candidates whose score overflowed, which the scan resolves.
func (f *Fleet) root(t []pickNode) *simReplica {
	if w := t[1]; w.key < math.Inf(1) {
		return f.replicas[w.rep]
	}
	return nil
}

// rescore refreshes r's leaf after its queue depth changed.
func (f *Fleet) rescore(r *simReplica) {
	if x := f.pick; x != nil {
		x.fix(r)
	}
}

// rescoreLoad refreshes r's leaf after its executing batch changed, which
// only least-outstanding keys read.
func (f *Fleet) rescoreLoad(r *simReplica) {
	if x := f.pick; x != nil && x.load {
		x.fix(r)
	}
}
