package dsmc

import (
	"context"
	"errors"
	"fmt"

	"dsmc/internal/grid"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// SweepPoint is one point of a parameter sweep: a name plus optional
// overrides applied to the sweep's base scenario. Nil fields keep the
// base value, so a point only states what it varies. Overriding a knob
// the base scenario does not have (e.g. WedgeAngleDeg on a shock tube,
// or GridNZ on a 2D tunnel) is a validation error.
type SweepPoint struct {
	Name             string   `json:"name"`
	Mach             *float64 `json:"mach,omitempty"`
	MeanFreePath     *float64 `json:"mean_free_path,omitempty"`
	ParticlesPerCell *float64 `json:"particles_per_cell,omitempty"`
	ThermalSpeed     *float64 `json:"thermal_speed,omitempty"`
	// WedgeAngleDeg overrides the (first) wedge's ramp angle; the base
	// scenario must have a wedge.
	WedgeAngleDeg *float64 `json:"wedge_angle_deg,omitempty"`
	// GridNX/GridNY/GridNZ override the grid shape — points of one sweep
	// may run different grids, and the aggregate carries per-point field
	// shapes. GridNZ applies to 3D scenarios only.
	GridNX *int `json:"grid_nx,omitempty"`
	GridNY *int `json:"grid_ny,omitempty"`
	GridNZ *int `json:"grid_nz,omitempty"`
	// PistonSpeed overrides the 3D shock tube's piston speed.
	PistonSpeed *float64 `json:"piston_speed,omitempty"`
}

// SweepSpec describes an ensemble or parameter sweep: a base scenario,
// the points that perturb it (none means a single-point ensemble of the
// base), the quantities to sample, and the replication and execution
// knobs.
type SweepSpec struct {
	// Name labels the sweep in events and results.
	Name string `json:"name,omitempty"`
	// Base is the legacy 2D base configuration — the compatibility
	// surface. Ignored when Scenario is set.
	Base Config `json:"base,omitempty"`
	// Scenario is the first-class base scenario (any kind, including the
	// 3D shock tube). Its seed is the sweep's base seed: every job
	// derives an independent seed from it, so a sweep is reproducible
	// from the spec alone. Its Workers is the per-simulation worker
	// count (default 1 under orchestration, so the job pool and the
	// inner sharding multiply rather than oversubscribe).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Quantities are the fields each replica samples and each point
	// aggregates; empty means Density alone.
	Quantities []Quantity `json:"quantities,omitempty"`
	// Points are the sweep points; empty runs the base alone.
	Points []SweepPoint `json:"points,omitempty"`
	// Replicas is the number of independent replicas per point (>= 1).
	Replicas int `json:"replicas"`
	// WarmSteps run before sampling; SampleSteps are averaged.
	WarmSteps   int `json:"warm_steps"`
	SampleSteps int `json:"sample_steps"`
	// Pool bounds the number of concurrently running simulations;
	// 0 selects runtime.NumCPU().
	Pool int `json:"pool,omitempty"`
	// CheckpointDir, when set, makes jobs resumable: each persists its
	// full state there every CheckpointEvery steps (default 50), and a
	// re-run of the same spec over the same directory continues from the
	// checkpoints — bit-identically to an uninterrupted run.
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	// ResultStoreDir, when set, memoizes the sweep against a
	// content-addressed result store rooted there: finished replica
	// outputs and point aggregates are published as checksummed
	// artifacts keyed by (spec fingerprint, master seed, point index,
	// replica), and a later sweep deriving the same keys — a re-run, or
	// a sweep sharing points at the same indices — reuses the verified
	// artifacts instead of recomputing, bit-identically. The dsmcd
	// server manages its own store; specs submitted to it must leave
	// this empty.
	ResultStoreDir string `json:"result_store_dir,omitempty"`
}

// BaseScenario resolves the sweep's base: the first-class Scenario when
// set, the legacy Base config otherwise.
func (spec *SweepSpec) BaseScenario() (Scenario, error) {
	if spec.Scenario != nil {
		return spec.Scenario.Scenario()
	}
	return spec.Base, nil
}

// ScalarStats is a cross-replica mean/variance with its 95% confidence
// half-width (normal approximation). Dropped counts replicas whose
// measurement was undefined (e.g. no shock front found).
type ScalarStats struct {
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	CI95     float64 `json:"ci95"`
	N        int     `json:"n"`
	Dropped  int     `json:"dropped,omitempty"`
}

// FieldStats carries per-cell cross-replica statistics of a sampled
// field, row-major over the grid like Field.Data, with the point's own
// field shape (points of one sweep may run different grids; NZ = 1 for
// 2D scenarios).
type FieldStats struct {
	NX       int       `json:"nx"`
	NY       int       `json:"ny"`
	NZ       int       `json:"nz,omitempty"`
	Mean     []float64 `json:"mean"`
	Variance []float64 `json:"variance"`
	CI95     []float64 `json:"ci95"`
}

// PointResult is one sweep point's aggregate over its replicas: per-cell
// statistics for every requested quantity plus the scalar diagnostics.
type PointResult struct {
	Name     string `json:"name"`
	Kind     string `json:"kind,omitempty"` // resolved scenario kind slug
	Replicas int    `json:"replicas"`
	// Density is the density aggregate — always present, whatever the
	// requested quantity list (the legacy surface).
	Density FieldStats `json:"density"`
	// Fields holds one aggregate per requested quantity, keyed by the
	// Quantity slug.
	Fields        map[Quantity]FieldStats `json:"fields,omitempty"`
	ShockAngleDeg ScalarStats             `json:"shock_angle_deg"`
	Collisions    ScalarStats             `json:"collisions"`
	NFlow         ScalarStats             `json:"nflow"`

	plan *plan // the point's resolved plan, for Field()
}

// FieldFor returns the cross-replica mean of one sampled quantity as a
// Field, with the full analysis surface (shock angle fit, wake metrics,
// renderers, 3D views) available on it.
func (p *PointResult) FieldFor(q Quantity) (*Field, error) {
	fs, ok := p.Fields[q]
	if !ok {
		return nil, fmt.Errorf("dsmc: quantity %q was not sampled by this sweep", q)
	}
	f := &Field{
		NX: fs.NX, NY: fs.NY, NZ: fs.NZ,
		Quantity: q,
		Data:     append([]float64(nil), fs.Mean...),
		grid:     grid.New(fs.NX, fs.NY),
	}
	if f.NZ == 0 {
		f.NZ = 1
	}
	if p.plan != nil {
		f.vols = p.plan.vols
		f.wedge = p.plan.wedge
		f.mach = p.plan.mach
	}
	return f, nil
}

// Field returns the mean density as a Field — the legacy single-quantity
// accessor.
func (p *PointResult) Field() *Field {
	f, err := p.FieldFor(Density)
	if err != nil {
		panic(err) // density is always aggregated
	}
	return f
}

// SweepResult is a completed sweep: one aggregate per point, in point
// order.
type SweepResult struct {
	Name   string        `json:"name,omitempty"`
	Points []PointResult `json:"points"`
}

// SweepEvent is one observation of sweep progress, delivered serially
// to the RunSweep observer. The distributed server reuses the type on
// its NDJSON stream for two additional event kinds: "trace" events
// carry a batch of flight-recorder records from a running job, and
// "keepalive" events carry a coordinator status snapshot.
type SweepEvent struct {
	Type       string `json:"type"`
	Job        string `json:"job,omitempty"`
	Scenario   string `json:"scenario,omitempty"`
	Replica    int    `json:"replica,omitempty"`
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	Err        string `json:"err,omitempty"`
	// Trace carries per-step phase timings on "trace" events (a small
	// recent batch, piggybacked on worker heartbeats).
	Trace []StepTrace `json:"trace,omitempty"`
	// Status is the coordinator snapshot attached to "keepalive" events.
	Status *SweepStatus `json:"status,omitempty"`
}

// SweepStatus is a point-in-time coordinator snapshot: how many jobs
// are leased out, how many are waiting, how many workers have reported
// in, and the staleness of the oldest live heartbeat.
type SweepStatus struct {
	ActiveJobs         int     `json:"active_jobs"`
	QueueDepth         int     `json:"queue_depth"`
	Workers            int     `json:"workers"`
	MaxHeartbeatAgeSec float64 `json:"max_heartbeat_age_sec"`
}

// errOverride formats the standard knob-not-in-scenario error.
func errOverride(point, knob, kind string) error {
	return fmt.Errorf("dsmc: point %q overrides %s but the base scenario (%s) has no such knob", point, knob, kind)
}

// applyPoint returns a copy of the base scenario with the point's
// overrides applied; overrides the scenario cannot express are errors.
func applyPoint(base Scenario, p SweepPoint) (Scenario, error) {
	reject3D := func(kind string) error {
		if p.GridNZ != nil {
			return errOverride(p.Name, "GridNZ", kind)
		}
		if p.PistonSpeed != nil {
			return errOverride(p.Name, "PistonSpeed", kind)
		}
		return nil
	}
	switch sc := base.(type) {
	case *Config:
		return applyPoint(*sc, p)
	case Config:
		if err := reject3D(sc.Kind()); err != nil {
			return nil, err
		}
		p.applyCommon(&sc.Mach, &sc.MeanFreePath, &sc.ParticlesPerCell, &sc.ThermalSpeed, &sc.GridNX, &sc.GridNY)
		if p.WedgeAngleDeg != nil {
			if sc.Wedge == nil {
				return nil, errOverride(p.Name, "the wedge angle", sc.Kind())
			}
			w := *sc.Wedge
			w.AngleDeg = *p.WedgeAngleDeg
			sc.Wedge = &w
		}
		return sc, nil
	case WedgeTunnel2D:
		if err := reject3D(sc.Kind()); err != nil {
			return nil, err
		}
		p.applyCommon(&sc.Mach, &sc.MeanFreePath, &sc.ParticlesPerCell, &sc.ThermalSpeed, &sc.GridNX, &sc.GridNY)
		applyF(&sc.Wedge.AngleDeg, p.WedgeAngleDeg)
		return sc, nil
	case EmptyTunnel2D:
		if err := reject3D(sc.Kind()); err != nil {
			return nil, err
		}
		if p.WedgeAngleDeg != nil {
			return nil, errOverride(p.Name, "the wedge angle", sc.Kind())
		}
		p.applyCommon(&sc.Mach, &sc.MeanFreePath, &sc.ParticlesPerCell, &sc.ThermalSpeed, &sc.GridNX, &sc.GridNY)
		return sc, nil
	case DoubleWedge2D:
		if err := reject3D(sc.Kind()); err != nil {
			return nil, err
		}
		p.applyCommon(&sc.Mach, &sc.MeanFreePath, &sc.ParticlesPerCell, &sc.ThermalSpeed, &sc.GridNX, &sc.GridNY)
		applyF(&sc.Wedge.AngleDeg, p.WedgeAngleDeg)
		return sc, nil
	case ShockTube3D:
		if p.Mach != nil {
			return nil, errOverride(p.Name, "Mach", sc.Kind())
		}
		if p.WedgeAngleDeg != nil {
			return nil, errOverride(p.Name, "the wedge angle", sc.Kind())
		}
		p.applyCommon(nil, &sc.MeanFreePath, &sc.ParticlesPerCell, &sc.ThermalSpeed, &sc.GridNX, &sc.GridNY)
		applyF(&sc.PistonSpeed, p.PistonSpeed)
		applyI(&sc.GridNZ, p.GridNZ)
		return sc, nil
	}
	return nil, fmt.Errorf("dsmc: point %q: base scenario kind %q cannot be swept", p.Name, base.Kind())
}

// applyCommon applies the overrides every scenario shares onto the
// destination fields; a nil destination means the scenario has no such
// knob (the caller rejects the override explicitly before this runs).
func (p SweepPoint) applyCommon(mach, meanFreePath, particlesPerCell, thermalSpeed *float64, gridNX, gridNY *int) {
	applyF(mach, p.Mach)
	applyF(meanFreePath, p.MeanFreePath)
	applyF(particlesPerCell, p.ParticlesPerCell)
	applyF(thermalSpeed, p.ThermalSpeed)
	applyI(gridNX, p.GridNX)
	applyI(gridNY, p.GridNY)
}

func applyF(dst *float64, v *float64) {
	if dst != nil && v != nil {
		*dst = *v
	}
}

func applyI(dst *int, v *int) {
	if dst != nil && v != nil {
		*dst = *v
	}
}

// lowerSpec translates the public spec to the orchestration layer's:
// every point's scenario is resolved, lowered, and handed to
// internal/run with its own grid shape.
func lowerSpec(spec SweepSpec) (run.Spec, []*plan, error) {
	base, err := spec.BaseScenario()
	if err != nil {
		return run.Spec{}, nil, err
	}
	basePlan, err := base.lower()
	if err != nil {
		return run.Spec{}, nil, err
	}
	if basePlan.backend != Reference {
		return run.Spec{}, nil, errors.New("dsmc: sweeps orchestrate the Reference backend only")
	}
	points := spec.Points
	if len(points) == 0 {
		name := spec.Name
		if name == "" {
			name = "ensemble"
		}
		points = []SweepPoint{{Name: name}}
	}
	quantities := spec.Quantities
	if len(quantities) == 0 {
		quantities = []Quantity{Density}
	}
	hasDensity := false
	qslugs := make([]string, 0, len(quantities)+1)
	for _, q := range quantities {
		qslugs = append(qslugs, string(q))
		hasDensity = hasDensity || q == Density
	}
	if !hasDensity {
		// Density is always aggregated: the legacy result surface and the
		// per-replica shock-angle fit both need it.
		qslugs = append(qslugs, string(Density))
	}

	baseSeed := uint64(0)
	if basePlan.sim != nil {
		baseSeed = basePlan.sim.Seed
	} else if basePlan.sim3 != nil {
		baseSeed = basePlan.sim3.Seed
	}
	sp := run.Spec{
		Name:            spec.Name,
		Quantities:      qslugs,
		Replicas:        spec.Replicas,
		WarmSteps:       spec.WarmSteps,
		SampleSteps:     spec.SampleSteps,
		BaseSeed:        baseSeed,
		Pool:            spec.Pool,
		CheckpointDir:   spec.CheckpointDir,
		CheckpointEvery: spec.CheckpointEvery,
	}
	plans := make([]*plan, len(points))
	for i, p := range points {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("point-%03d", i)
		}
		sc, err := applyPoint(base, p)
		if err != nil {
			return run.Spec{}, nil, err
		}
		pl, err := sc.lower()
		if err != nil {
			return run.Spec{}, nil, fmt.Errorf("dsmc: point %q: %w", name, err)
		}
		// Under orchestration the outer pool supplies the parallelism;
		// defaulting every job to all cores would oversubscribe.
		if pl.sim != nil && pl.sim.Workers == 0 {
			pl.sim.Workers = 1
		}
		if pl.sim3 != nil && pl.sim3.Workers == 0 {
			pl.sim3.Workers = 1
		}
		plans[i] = pl
		sp.Scenarios = append(sp.Scenarios, run.Scenario{
			Name:    name,
			Sim:     pl.sim,
			Sim3:    pl.sim3,
			Float32: pl.precision == Float32,
		})
	}
	return sp, plans, nil
}

// RunSweep executes the sweep's jobs — replicas fan out over a
// bounded pool of concurrent simulations, per-point aggregations fan in
// — and returns cross-replica mean/variance/CI statistics per point and
// per requested quantity. Points may override the base scenario's
// geometry and grid shape; each point's aggregate carries its own field
// shape. Aggregates are bit-identical for any pool size and any job
// completion order; with a checkpoint directory, a killed and re-run
// sweep resumes from the checkpoints and still produces identical bits.
// onEvent, when non-nil, observes progress (serialized calls).
func RunSweep(ctx context.Context, spec SweepSpec, onEvent func(SweepEvent)) (*SweepResult, error) {
	sp, plans, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	if spec.ResultStoreDir != "" {
		st, err := store.Open(spec.ResultStoreDir)
		if err != nil {
			return nil, fmt.Errorf("dsmc: opening result store: %w", err)
		}
		sp.Results = st
	}
	var observer func(run.Event)
	if onEvent != nil {
		observer = func(e run.Event) {
			onEvent(SweepEvent{
				Type: string(e.Type), Job: e.Job, Scenario: e.Scenario, Replica: e.Replica,
				StepsDone: e.StepsDone, StepsTotal: e.StepsTotal, Err: e.Err,
			})
		}
	}
	res, err := run.Run(ctx, sp, observer)
	if err != nil {
		return nil, err
	}
	return assembleResult(spec.Name, plans, res.Aggregates), nil
}

// assembleResult converts the orchestration layer's per-scenario
// aggregates into the public sweep result, attaching each point's
// resolved plan (kind, field shape, analysis context). Both the
// in-process RunSweep and the distributed AssembleSweepResult end here,
// so the two execution paths can never drift in shape or convention.
func assembleResult(name string, plans []*plan, aggs []*run.Aggregate) *SweepResult {
	out := &SweepResult{Name: name}
	for i, agg := range aggs {
		pl := plans[i]
		pr := PointResult{
			Name:          agg.Scenario,
			Kind:          pl.kind,
			Replicas:      agg.Replicas,
			Fields:        make(map[Quantity]FieldStats, len(agg.Fields)),
			ShockAngleDeg: ScalarStats(agg.ShockAngleDeg),
			Collisions:    ScalarStats(agg.Collisions),
			NFlow:         ScalarStats(agg.NFlow),
			plan:          pl,
		}
		for q, fs := range agg.Fields {
			pr.Fields[Quantity(q)] = FieldStats{
				NX: pl.nx, NY: pl.ny, NZ: pl.nz,
				Mean: fs.Mean, Variance: fs.Variance, CI95: fs.CI95,
			}
		}
		pr.Density = pr.Fields[Density]
		out.Points = append(out.Points, pr)
	}
	return out
}

// RunEnsemble runs replicas of one scenario and aggregates them — the
// single-point sweep. The result's CI quantifies the statistical
// scatter DSMC answers carry. Any scenario works, including the 3D
// shock tube; the legacy Config passes through unchanged.
func RunEnsemble(ctx context.Context, sc Scenario, replicas, warmSteps, sampleSteps int) (*PointResult, error) {
	spec := SweepSpec{
		Replicas:    replicas,
		WarmSteps:   warmSteps,
		SampleSteps: sampleSteps,
	}
	if cfg, ok := sc.(Config); ok {
		spec.Base = cfg
	} else if cfg, ok := sc.(*Config); ok {
		spec.Base = *cfg
	} else {
		ss, err := NewScenarioSpec(sc)
		if err != nil {
			return nil, err
		}
		spec.Scenario = ss
	}
	res, err := RunSweep(ctx, spec, nil)
	if err != nil {
		return nil, err
	}
	return &res.Points[0], nil
}
