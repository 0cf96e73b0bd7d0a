// Package repair is the fault-tolerance half of the fault story: package
// fault injects ReRAM non-idealities and sim measures the damage; this
// package detects a crossbar's stuck-at fault map (march-test readback),
// repairs it by remapping affected weight columns onto provisioned spare
// columns and whole crossbars onto spare crossbars, and degrades gracefully
// when spares run out by masking known-bad cells — reprogramming their free
// bit planes to the closest representable value to the ideal weight — so
// the residual error is bounded instead of arbitrary. The robustness
// literature (ARAS-style adaptive re-mapping, multi-objective robust
// crossbar design) treats tolerance as a design problem; spare provisioning
// is therefore part of the accelerator plan (accel.PlanSpec.Spares) and its
// area is charged against utilization and RUE.
package repair

import (
	"fmt"
	"math"
)

// Provision describes the spare redundancy built into every crossbar/tile.
// The zero value provisions nothing.
type Provision struct {
	// SpareCols is the number of spare bitline columns provisioned per
	// crossbar. Remapping a faulty weight column onto a (tested-pristine)
	// spare repairs every fault in that column.
	SpareCols int
	// SpareXBs is the number of spare whole crossbars (PEs). In an
	// accel.Plan it is provisioned per occupied tile; in Apply it is the
	// total budget available to the call. A spare crossbar absorbs a region
	// whose faulty-column count exceeds SpareCols.
	SpareXBs int
}

// Zero reports whether no spares are provisioned.
func (p Provision) Zero() bool { return p.SpareCols == 0 && p.SpareXBs == 0 }

// Validate rejects negative provisions.
func (p Provision) Validate() error {
	if p.SpareCols < 0 || p.SpareXBs < 0 {
		return fmt.Errorf("repair: negative provision %+v", p)
	}
	return nil
}

// MaxCellRate estimates the largest per-cell stuck-at rate the provision can
// fully absorb on a grid of nXBs crossbars with the given per-crossbar
// geometry (rows wordlines, cols data bitlines, planes bit-slice crossbars
// per weight). A column is faulty when any of its rows·planes cells is
// stuck, so the expected faulty-column fraction at cell rate p is
// 1-(1-p)^(rows·planes); spares cover SpareCols/cols of the columns plus
// SpareXBs/nXBs whole crossbars. Solving for p gives the coverable rate.
func (p Provision) MaxCellRate(rows, cols, planes, nXBs int) float64 {
	if rows <= 0 || cols <= 0 || planes <= 0 || nXBs <= 0 {
		return 0
	}
	cover := float64(p.SpareCols) / float64(cols)
	cover += float64(p.SpareXBs) / float64(nXBs)
	if cover >= 1 {
		return 1
	}
	if cover <= 0 {
		return 0
	}
	return 1 - math.Pow(1-cover, 1/float64(rows*planes))
}

// Policy bundles a spare provision with the detection behavior driving its
// use.
type Policy struct {
	Provision
	// DetectMissRate is the probability the march test misses a genuinely
	// stuck cell in one sweep (imperfect readback margins). Repeated sweeps
	// are independent, so misses decay geometrically over an online health
	// loop.
	DetectMissRate float64
	// DetectSeed makes imperfect detection reproducible.
	DetectSeed int64
}

// Validate rejects malformed policies.
func (p Policy) Validate() error {
	if err := p.Provision.Validate(); err != nil {
		return err
	}
	if p.DetectMissRate < 0 || p.DetectMissRate >= 1 {
		return fmt.Errorf("repair: detect miss rate %v outside [0,1)", p.DetectMissRate)
	}
	return nil
}

// Cell is one stuck memristor: bit plane index, logical weight-matrix
// position, and the value it is pinned at.
type Cell struct {
	Plane, Row, Col int
	Stuck           uint8
}

// FaultMap is the set of stuck cells of one layer's bit-plane stack, as
// produced by a march test (ground truth) or a thinned detection sweep.
type FaultMap struct {
	Rows, Cols, Planes int
	Cells              []Cell
}

// Count returns the number of stuck cells in the map.
func (f *FaultMap) Count() int { return len(f.Cells) }

// Empty reports whether the map holds no faults.
func (f *FaultMap) Empty() bool { return f == nil || len(f.Cells) == 0 }

// Region is one crossbar's window of the unfolded weight matrix: rows
// [R0,R1) × columns [C0,C1). Regions passed to Apply must partition the
// matrix (every cell in exactly one region), which the band/column-group
// decomposition of an xbar.Mapping guarantees.
type Region struct {
	R0, R1, C0, C1 int
}

func (r Region) contains(row, col int) bool {
	return row >= r.R0 && row < r.R1 && col >= r.C0 && col < r.C1
}

// Stats reports what one detect-and-repair pass did.
type Stats struct {
	// TrueFaults is the ground-truth stuck-cell count; Detected is how many
	// the (possibly imperfect) march test found.
	TrueFaults, Detected int
	// RemappedCols counts weight columns relocated onto spare columns;
	// RemappedXBs counts whole crossbar regions relocated onto spare
	// crossbars.
	RemappedCols, RemappedXBs int
	// MaskedCells counts detected stuck cells that could not be remapped;
	// their weights were reprogrammed to the closest representable value
	// the stuck bits allow.
	MaskedCells int
	// UncoveredFaults counts ground-truth stuck cells left on live hardware
	// (masked or missed) — the residual the health score tracks.
	UncoveredFaults int
	// FullyRepaired is true when every ground-truth fault was relocated
	// onto pristine spares: the repaired array is bit-exact with the ideal
	// one.
	FullyRepaired bool
}

// String summarizes the pass.
func (s Stats) String() string {
	return fmt.Sprintf("repair: %d/%d faults detected, %d cols + %d XBs remapped, %d masked, %d uncovered",
		s.Detected, s.TrueFaults, s.RemappedCols, s.RemappedXBs, s.MaskedCells, s.UncoveredFaults)
}
