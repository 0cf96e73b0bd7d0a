package isa

import (
	"errors"
	"fmt"

	"autohet/internal/accel"
	"autohet/internal/dnn"
)

// Validate checks prog against plan without running it: the protocol the
// Global Controller enforces as it signals buffers and tiles. Weights are
// programmed before a tile fires, inputs are latched before MVMs, all of a
// layer's tiles fire before its partial sums merge, and the layers run once
// each, in model order. ACT must also follow the model's ReLU rule (every
// mappable layer but the last), so a valid program describes exactly the
// network sim.Engine computes for the plan.
func Validate(prog *Program, plan *accel.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	v := &validator{
		plan:   plan,
		states: make([]layerState, len(plan.Layers)),
		loaded: map[tileKey]bool{},
		fired:  map[tileKey]bool{},
	}
	for mi, l := range plan.Model.Layers {
		if l.Mappable() {
			v.states[l.Index].modelIndex = mi
		}
	}
	for pc, in := range prog.Instrs {
		if err := v.step(in); err != nil {
			return fmt.Errorf("isa: pc %d: %w", pc, err)
		}
	}
	if !v.halted {
		return errors.New("isa: program did not HALT")
	}
	if v.next != len(plan.Model.Layers) {
		return errors.New("isa: final layer never stored")
	}
	return nil
}

// layerState is one mappable layer's progress through the protocol.
type layerState struct {
	modelIndex              int
	inputSet, merged, acted bool
}

// tileKey names one layer's placement on one tile.
type tileKey struct{ layer, tile int32 }

type validator struct {
	plan   *accel.Plan
	states []layerState
	loaded map[tileKey]bool
	fired  map[tileKey]bool
	next   int // the model layer that runs next
	halted bool
}

// step checks one instruction and advances the protocol state.
func (v *validator) step(in Instr) error {
	if v.halted {
		return errors.New("instruction after HALT")
	}
	var st *layerState
	var la *accel.LayerAlloc
	switch in.Op {
	case OpLDW, OpSETIN, OpFIRE, OpMERGE, OpACT, OpSTORE:
		if in.A < 0 || int(in.A) >= len(v.states) {
			return fmt.Errorf("layer operand %d out of range [0,%d)", in.A, len(v.states))
		}
		st, la = &v.states[in.A], v.plan.Layers[in.A]
	}
	key := tileKey{in.A, in.B}
	switch in.Op {
	case OpLDW:
		// The tile must hold a placement of the layer, which also keeps
		// the tile operand in range.
		want := 0
		for _, pl := range la.Placements {
			if pl.TileID == int(in.B) {
				want = pl.Slots
			}
		}
		if want == 0 {
			return fmt.Errorf("LDW L%d into tile %d which holds none of its slots", in.A+1, in.B)
		}
		if int(in.C) != want {
			return fmt.Errorf("LDW L%d tile %d slots %d, plan says %d", in.A+1, in.B, in.C, want)
		}
		v.loaded[key] = true
	case OpSETIN:
		if err := v.inOrder(st.modelIndex); err != nil {
			return err
		}
		st.inputSet = true
	case OpFIRE:
		if !st.inputSet {
			return fmt.Errorf("FIRE L%d before SETIN", in.A+1)
		}
		if !v.loaded[key] {
			return fmt.Errorf("FIRE L%d on unprogrammed tile %d", in.A+1, in.B)
		}
		v.fired[key] = true
	case OpMERGE:
		for _, pl := range la.Placements {
			if !v.fired[tileKey{in.A, int32(pl.TileID)}] {
				return fmt.Errorf("MERGE L%d before tile %d fired", in.A+1, pl.TileID)
			}
		}
		st.merged = true
	case OpACT:
		if !st.merged {
			return fmt.Errorf("ACT L%d before MERGE", in.A+1)
		}
		if int(in.A) == len(v.states)-1 {
			return fmt.Errorf("ACT L%d on the final layer, which has no ReLU", in.A+1)
		}
		st.acted = true
	case OpSTORE:
		if !st.merged {
			return fmt.Errorf("STORE L%d before MERGE", in.A+1)
		}
		if !st.acted && int(in.A) != len(v.states)-1 {
			return fmt.Errorf("STORE L%d before ACT: every layer but the last applies ReLU", in.A+1)
		}
		if err := v.inOrder(st.modelIndex); err != nil {
			return err
		}
		v.next++
	case OpPOOL:
		layers := v.plan.Model.Layers
		if in.A < 0 || int(in.A) >= len(layers) || layers[in.A].Kind != dnn.Pool {
			return fmt.Errorf("POOL on non-pool layer %d", in.A)
		}
		if err := v.inOrder(int(in.A)); err != nil {
			return err
		}
		v.next++
	case OpHALT:
		v.halted = true
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	return nil
}

// inOrder checks that model layer mi is the one that runs next.
func (v *validator) inOrder(mi int) error {
	if mi != v.next {
		return fmt.Errorf("layer %d executed out of order (expected %d)", mi, v.next)
	}
	return nil
}
