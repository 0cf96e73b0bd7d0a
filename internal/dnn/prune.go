package dnn

import (
	"fmt"
	"math"
)

// Structured channel pruning (in the spirit of AUTO-PRUNE, the paper's
// reference [27], by the same research group): dropping a fraction of each
// layer's output channels removes whole columns from the unfolded weight
// matrix, shrinking the crossbar grids of both the pruned layer and its
// consumer. PruneChannels derives the pruned *architecture*; with no
// trained weights in this repo (DESIGN.md substitutions), channel selection
// is structural, and accuracy is governed by a keep-ratio budget in the
// search, as with mixed precision.

// PruneChannels returns a new sequential model where mappable layer i keeps
// ⌈keep[i]·OutC⌉ output channels; downstream input channels (and the first
// FC layer's flattened width) shrink accordingly. The final mappable
// layer's outputs are the classifier logits and are never pruned (its keep
// entry must be 1). Only chain-structured models built with NewModel are
// supported — skip-connection (flat) models would need mask propagation
// across branches.
func PruneChannels(m *Model, keep []float64) (*Model, error) {
	if len(keep) != m.NumMappable() {
		return nil, fmt.Errorf("dnn: keep covers %d layers, model %q has %d", len(keep), m.Name, m.NumMappable())
	}
	for i, k := range keep {
		if !(k > 0 && k <= 1) {
			return nil, fmt.Errorf("dnn: layer %d keep ratio %v outside (0,1]", i, k)
		}
	}
	if keep[len(keep)-1] != 1 {
		return nil, fmt.Errorf("dnn: the final layer's logits cannot be pruned (keep must be 1)")
	}

	var layers []*Layer
	prevKept := -1 // OutC of the previous mappable layer after pruning
	prevOrig := -1 // its original OutC
	flattened := false
	for _, l := range m.Layers {
		c := *l
		switch l.Kind {
		case Pool:
			layers = append(layers, &c)
			continue
		case Conv:
			if l.GroupCount() > 1 {
				return nil, fmt.Errorf("dnn: pruning grouped layer %q unsupported", l.Name)
			}
			if prevKept >= 0 {
				c.InC = prevKept
			}
		case FC:
			if prevKept >= 0 {
				if !flattened && prevOrig > 0 && l.InC != prevOrig {
					// First FC after spatial layers: its input is the
					// flattened C·H·W, which scales with the channel ratio.
					perChannel := l.InC / prevOrig
					if perChannel*prevOrig != l.InC {
						return nil, fmt.Errorf("dnn: layer %q input %d not divisible by upstream channels %d",
							l.Name, l.InC, prevOrig)
					}
					c.InC = perChannel * prevKept
				} else {
					c.InC = prevKept
				}
			}
			flattened = true
		}
		kept := int(math.Ceil(keep[l.Index] * float64(l.OutC)))
		if kept < 1 {
			kept = 1
		}
		c.OutC = kept
		prevKept, prevOrig = kept, l.OutC
		layers = append(layers, &c)
	}
	return NewModel(m.Name+"-pruned", m.InH, m.InW, m.InC, layers)
}

// PrunedFraction returns 1 − (pruned weights / original weights) for a
// keep vector applied to m — the overall structural sparsity achieved.
func PrunedFraction(m *Model, keep []float64) (float64, error) {
	pruned, err := PruneChannels(m, keep)
	if err != nil {
		return 0, err
	}
	return 1 - float64(pruned.TotalWeights())/float64(m.TotalWeights()), nil
}
