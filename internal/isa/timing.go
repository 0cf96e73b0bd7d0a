package isa

import (
	"autohet/internal/accel"
	"autohet/internal/hw"
)

// Instruction-level timing: price a Global Controller program without
// executing it functionally. LDW costs follow the programming model
// (write pulses, per-tile parallel); FIRE covers a layer's bit-serial
// crossbar sweeps on one tile (tiles of one layer overlap, so a layer's
// fire phase is bounded by its slowest tile); MERGE adds the adder-tree and
// inter-tile gather time; POOL/ACT/STORE are buffer-rate bound. The
// estimate decomposes the plan-level latency (sim.Simulate) by instruction,
// which is what a GC trace viewer needs.

// InstrCost is one instruction's priced latency contribution in ns.
type InstrCost struct {
	PC      int
	Instr   Instr
	Latency float64
	// Overlapped marks instructions that run concurrently with a sibling
	// (FIREs of the same layer) and so do not add to the critical path.
	Overlapped bool
}

// TimedProgram is a priced program.
type TimedProgram struct {
	Costs []InstrCost
	// ProgramNS is the weight-loading prologue (one-time).
	ProgramNS float64
	// InferenceNS is the critical-path latency of the inference body.
	InferenceNS float64
}

// Time prices prog against plan. It checks the program with Validate
// first, so a protocol error surfaces before any pricing.
func Time(prog *Program, plan *accel.Plan) (*TimedProgram, error) {
	if err := Validate(prog, plan); err != nil {
		return nil, err
	}
	cfg := plan.Cfg
	tp := &TimedProgram{}
	firesSeen := map[int]bool{}

	for i, in := range prog.Instrs {
		cost := InstrCost{PC: i, Instr: in}
		switch in.Op {
		case OpLDW:
			// Tiles program in parallel: apportion the parallel write time
			// by this placement's slot share, marking all but the longest
			// as overlapped. Simplification: every LDW shows its own
			// tile-local time; the prologue total is the max (parallel).
			la := plan.Layers[in.A]
			bits := la.WeightBits
			if bits < 1 {
				bits = cfg.WeightBits
			}
			cells := la.Mapping.UsedCells * int64(bits) * int64(la.Copies) *
				int64(in.C) / int64(la.SlotsNeeded())
			cost.Latency = float64(cells) * hw.WriteVerifyRetries * hw.CellWriteTime / hw.WriteParallelism
			cost.Overlapped = true // prologue is max-parallel
			if cost.Latency > tp.ProgramNS {
				tp.ProgramNS = cost.Latency
			}
		case OpSETIN:
			// Stream the input feature map into the buffer, one byte/ns.
			l := plan.Layers[in.A].Layer
			cost.Latency = float64(l.InputSize()*l.InC) * 0.001
			tp.InferenceNS += cost.Latency
		case OpFIRE:
			la := plan.Layers[in.A]
			copies := la.Copies
			if copies < 1 {
				copies = 1
			}
			mvms := float64(la.Layer.OutputPositions())
			cost.Latency = mvms * float64(cfg.InputBits) * cfg.XBReadLatency(la.Shape) / float64(copies)
			// All FIREs of one layer overlap; only the first adds to the
			// critical path.
			if firesSeen[int(in.A)] {
				cost.Overlapped = true
			} else {
				firesSeen[int(in.A)] = true
				tp.InferenceNS += cost.Latency
			}
		case OpMERGE:
			la := plan.Layers[in.A]
			tiles := plan.LayerTiles(la.Layer.Index)
			mvms := float64(la.Layer.OutputPositions())
			copies := la.Copies
			if copies < 1 {
				copies = 1
			}
			cost.Latency = mvms * cfg.MergeLatency(la.Mapping.GridRows, tiles) / float64(copies)
			tp.InferenceNS += cost.Latency
		case OpACT, OpSTORE:
			l := plan.Layers[in.A].Layer
			cost.Latency = float64(l.OutC*l.OutputPositions()) * 0.0005
			tp.InferenceNS += cost.Latency
		case OpPOOL:
			l := plan.Model.Layers[in.A]
			cost.Latency = float64(l.OutputPositions()*l.K*l.K*l.InC) * 0.0002
			tp.InferenceNS += cost.Latency
		}
		tp.Costs = append(tp.Costs, cost)
	}
	return tp, nil
}

// CriticalPath returns the costs on the inference critical path (not
// overlapped), in program order.
func (tp *TimedProgram) CriticalPath() []InstrCost {
	var out []InstrCost
	for _, c := range tp.Costs {
		if !c.Overlapped && c.Latency > 0 {
			out = append(out, c)
		}
	}
	return out
}
