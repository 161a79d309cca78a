package dsmc

import (
	"fmt"

	"dsmc/internal/grid"
	"dsmc/internal/sample"
)

// Quantity identifies a sampled macroscopic field. All quantities are
// derived from the same one-pass moment accumulation, so asking for
// several costs one sampling run, not several.
type Quantity string

// The derivable quantities. Each is normalised by its freestream value:
// density by ρ∞, velocities by the freestream most-probable speed cm∞,
// temperature by the freestream temperature (so undisturbed flow reads
// 1.0), and MachNumber is the local bulk speed over the local sound
// speed.
const (
	Density     Quantity = sample.QDensity
	VelocityX   Quantity = sample.QVelocityX
	VelocityY   Quantity = sample.QVelocityY
	VelocityZ   Quantity = sample.QVelocityZ
	Temperature Quantity = sample.QTemperature
	MachNumber  Quantity = sample.QMach
)

// Quantities lists every derivable quantity in stable order.
func Quantities() []Quantity {
	qs := sample.Quantities()
	out := make([]Quantity, len(qs))
	for i, q := range qs {
		out[i] = Quantity(q)
	}
	return out
}

// Sampling is the result of a sampling pass: the accumulated per-cell
// moments of `Steps()` consecutive time steps, from which any Quantity
// field is derived without re-running the simulation.
type Sampling struct {
	p     *plan
	acc   *sample.Accumulator
	steps int
	// countsOnly marks backends that expose per-cell counts but not
	// per-particle moments (the ConnectionMachine backend): only Density
	// is derivable.
	countsOnly bool
}

// Sample advances the simulation `steps` further steps while
// accumulating all per-cell moments (count, momentum, energy) in one
// pass — sharded over cell ranges on the backend's worker pool, with the
// same worker-count bit-identity contract as the simulation itself. Use
// the returned Sampling's Field to derive quantity fields.
func (s *Simulation) Sample(steps int) *Sampling {
	sp := s.newSampling()
	for k := 0; k < steps; k++ {
		s.Step()
		s.accumulate(sp)
	}
	return sp
}

// newSampling starts an empty sampling pass over the simulation's cells.
func (s *Simulation) newSampling() *Sampling {
	return &Sampling{
		p:          s.p,
		acc:        sample.NewAccumulatorCells(s.p.cells(), s.p.vols, s.p.nInf),
		countsOnly: s.ref == nil,
	}
}

// accumulate adds the current state's moments to a sampling pass as one
// more averaged step.
func (s *Simulation) accumulate(sp *Sampling) {
	if s.ref != nil {
		s.ref.SampleInto(sp.acc)
	} else {
		sp.acc.AddCounts(s.cm.CellCounts())
	}
	sp.steps++
}

// Steps returns the number of time steps averaged into the sampling.
func (sp *Sampling) Steps() int { return sp.steps }

// Field derives one quantity field from the accumulated moments. The
// field carries the scenario's shape header (NX, NY, NZ) — 3D scenarios
// yield 3D fields whose Slice/ProjectXY/ProfileX views feed the 2D
// analysis and renderers. The ConnectionMachine backend accumulates
// per-cell counts only; asking it for anything but Density is an error.
func (sp *Sampling) Field(q Quantity) (*Field, error) {
	if sp.countsOnly && q != Density {
		return nil, fmt.Errorf("dsmc: the ConnectionMachine backend samples cell counts only; quantity %q requires the Reference backend", q)
	}
	cm, gamma := sp.p.norms()
	data, err := sp.acc.FieldOf(string(q), sample.Norms{Cm: cm, Gamma: gamma})
	if err != nil {
		return nil, err
	}
	return &Field{
		NX: sp.p.nx, NY: sp.p.ny, NZ: sp.p.nz,
		Quantity: q,
		Data:     data,
		grid:     grid.New(sp.p.nx, sp.p.ny),
		vols:     sp.p.vols,
		wedge:    sp.p.wedge,
		mach:     sp.p.mach,
	}, nil
}

// MustField is Field for quantities known to be derivable (e.g. Density
// on any backend); it panics on error. Convenient in examples and tests.
func (sp *Sampling) MustField(q Quantity) *Field {
	f, err := sp.Field(q)
	if err != nil {
		panic(err)
	}
	return f
}
