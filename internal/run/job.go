package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"dsmc/internal/ckpt"
	"dsmc/internal/grid"
	"dsmc/internal/kernel"
	"dsmc/internal/molec"
	"dsmc/internal/rng"
	"dsmc/internal/sample"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// Scenario is one sweep point lowered to an internal configuration:
// exactly one of the backend configs is set (2D wind tunnel or 3D shock
// tube), plus the storage precision to instantiate it at. The Seed field
// of the config is ignored — every job derives its own seed from the
// spec's base seed (rng.JobSeed), so replicas are independent by
// construction and a sweep is reproducible from (spec, base seed) alone.
type Scenario struct {
	Name    string
	Sim     *sim.Config  // 2D wind tunnel
	Sim3    *sim3.Config // 3D shock tube
	Float32 bool
}

// validate reports scenario errors (run.Spec.Validate wraps them with
// the scenario name).
func (sc *Scenario) validate() error {
	switch {
	case sc.Sim != nil && sc.Sim3 != nil:
		return errors.New("both Sim and Sim3 set")
	case sc.Sim != nil:
		return sc.Sim.Validate()
	case sc.Sim3 != nil:
		return sc.Sim3.Validate()
	}
	return errors.New("no backend config set")
}

// ReplicaResult is one finished replica's contribution to the
// aggregation: the requested time-averaged quantity fields, the fitted
// shock angle (NaN for scenarios without a wedge), and the integer
// diagnostics.
type ReplicaResult struct {
	Fields        map[string][]float64
	ShockAngleDeg float64
	Collisions    int64
	NFlow         int
}

// jobCkpt describes the checkpoint policy of one replica job.
type jobCkpt struct {
	store CkptStore // nil disables checkpointing
	every int       // steps between checkpoints (default 50)
}

// replicaSim is the slice of engine-backend surface one replica job
// drives. Both precision instantiations of both backends implement it.
type replicaSim interface {
	Step()
	SampleInto(acc *sample.Accumulator)
	Collisions() int64
	NFlow() int
	SetStepObserver(fn func(step int, phaseNs [4]int64, particles int))
	CheckpointSections(w *ckpt.Writer)
	RestoreSections(r *ckpt.Reader) error
}

// replicaJob is a constructed replica: the live simulation plus the
// scenario-derived metadata the shared stepping loop and the checkpoint
// codec need (shape, precision tag, normalisers, analysis hook).
type replicaJob struct {
	sim   replicaSim
	prec  ckpt.Prec
	cells int
	acc   *sample.Accumulator
	norms sample.Norms
	// angle fits the scenario's validation scalar from the density
	// field; NaN when the scenario has no oblique shock to fit.
	angle func(density []float64) float64
}

// buildReplica constructs the scenario's simulation at the given seed.
func buildReplica(sc Scenario, seed uint64) (*replicaJob, error) {
	switch {
	case sc.Sim != nil:
		if sc.Float32 {
			return buildReplica2D[float32](sc, seed)
		}
		return buildReplica2D[float64](sc, seed)
	case sc.Sim3 != nil:
		if sc.Float32 {
			return buildReplica3D[float32](sc, seed)
		}
		return buildReplica3D[float64](sc, seed)
	}
	return nil, fmt.Errorf("scenario %q: no backend config set", sc.Name)
}

func buildReplica2D[F kernel.Float](sc Scenario, seed uint64) (*replicaJob, error) {
	cfg := *sc.Sim
	cfg.Seed = seed
	s, err := sim.NewOf[F](cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	g := grid.New(cfg.NX, cfg.NY)
	gamma := cfg.Free.Gamma
	if gamma == 0 {
		gamma = cfg.Model.Gamma()
	}
	return &replicaJob{
		sim:   s,
		prec:  ckpt.PrecOf[F](),
		cells: g.Cells(),
		acc:   sample.NewAccumulator(g, s.Volumes(), cfg.NPerCell),
		norms: sample.Norms{Cm: cfg.Free.Cm, Gamma: gamma},
		angle: func(density []float64) float64 { return shockAngleDeg(density, g, cfg) },
	}, nil
}

func buildReplica3D[F kernel.Float](sc Scenario, seed uint64) (*replicaJob, error) {
	cfg := *sc.Sim3
	cfg.Seed = seed
	s, err := sim3.NewOf[F](cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	model := cfg.Model
	if model.Name == "" {
		model = molec.Maxwell()
	}
	cells := sim3.Grid3{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ}.Cells()
	return &replicaJob{
		sim:   s,
		prec:  ckpt.PrecOf[F](),
		cells: cells,
		acc:   sample.NewAccumulatorCells(cells, nil, cfg.NPerCell),
		norms: sample.Norms{Cm: cfg.Cm, Gamma: model.Gamma()},
		angle: func([]float64) float64 { return math.NaN() },
	}, nil
}

// runReplica executes one replica of a scenario: warm to steady state,
// then sample every step into the one-pass moment accumulator, and
// derive the requested quantity fields at the end. With a checkpoint
// store the job persists its progress every `every` steps and resumes
// exactly — the restored run is bit-identical to an uninterrupted one,
// because the checkpoint carries the full engine, domain and accumulator
// state and the step sequence does not depend on chunk boundaries.
//
// Cancellation is checked after every step, not just at chunk
// boundaries: a cancelled job saves a checkpoint at whatever step it
// reached (the state is consistent after any full step) and returns
// ctx.Err(), so graceful shutdown loses no work and the resumed run is
// still bit-identical.
func runReplica(ctx context.Context, sc Scenario, quantities []string, seed uint64, warm, sampleSteps int, ck jobCkpt, progress func(done, total int), trace func(step int, phaseNs [4]int64, particles int)) (*ReplicaResult, error) {
	job, err := buildReplica(sc, seed)
	if err != nil {
		return nil, err
	}
	if trace != nil {
		// The flight-recorder feed: per-step phase timings straight off
		// the engine's existing clock chokepoint. Purely observational —
		// the observer sees durations, never touches state.
		job.sim.SetStepObserver(trace)
	}

	done := 0 // steps completed, warm and sampling combined
	total := warm + sampleSteps
	if ck.every <= 0 {
		ck.every = 50
	}
	fp := specFingerprint(sc, warm, sampleSteps)
	if ck.store != nil {
		restored, n, err := job.loadCheckpoint(ck.store, seed, fp)
		if err != nil {
			return nil, err
		}
		if restored {
			done = n
		}
	}
	if progress != nil {
		progress(done, total)
	}

	for done < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := total - done
		if ck.store != nil && chunk > ck.every {
			chunk = ck.every
		}
		cancelled := false
		for k := 0; k < chunk; k++ {
			job.sim.Step()
			if done+k+1 > warm {
				job.sim.SampleInto(job.acc)
			}
			if ctx.Err() != nil {
				done += k + 1
				cancelled = true
				break
			}
		}
		if cancelled {
			// Best-effort checkpoint of the in-flight state; the job is
			// abandoning anyway, so a failed save only costs recomputation.
			if ck.store != nil {
				_ = job.saveCheckpoint(ck.store, seed, fp, done)
			}
			return nil, ctx.Err()
		}
		done += chunk
		if ck.store != nil {
			if err := job.saveCheckpoint(ck.store, seed, fp, done); err != nil {
				return nil, err
			}
		}
		if progress != nil {
			progress(done, total)
		}
	}

	res := &ReplicaResult{
		Fields:     make(map[string][]float64, len(quantities)),
		Collisions: job.sim.Collisions(),
		NFlow:      job.sim.NFlow(),
	}
	for _, q := range quantities {
		field, err := job.acc.FieldOf(q, job.norms)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		res.Fields[q] = field
	}
	// The shock-angle fit runs on the density field; reuse the derived
	// one when it was requested (the public layer always requests it).
	density := res.Fields[sample.QDensity]
	if density == nil {
		d, err := job.acc.FieldOf(sample.QDensity, job.norms)
		if err != nil {
			return nil, err
		}
		density = d
	}
	res.ShockAngleDeg = job.angle(density)
	return res, nil
}

// saveCheckpoint serializes the job state — progress counters, the full
// simulation, and the sampling accumulator — and hands the bytes to the
// store, which persists them atomically (the file store via
// write-temp/fsync/rename, the distributed worker via an idempotent
// upload). If the medium still delivers a corrupt buffer later,
// loadCheckpoint detects it by checksum and falls back to a fresh
// (bit-identical) run rather than wedging the sweep.
func (job *replicaJob) saveCheckpoint(store CkptStore, seed, fp uint64, done int) error {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf, ckpt.KindJob, job.prec, job.cells)
	w.U64(seed)
	w.U64(fp)
	w.U64(uint64(done))
	job.sim.CheckpointSections(w)
	ckpt.WriteAccumulator(w, job.acc)
	if err := w.Close(); err != nil {
		return err
	}
	return store.Save(buf.Bytes())
}

// loadCheckpoint restores a job checkpoint if one exists, returning
// whether a restore happened and the completed step count.
//
// Failure policy: a checkpoint that is merely corrupt (torn write,
// disk damage — detected by the checksum trailer before any state is
// applied) is discarded and the job starts fresh, which is bit-identical
// to having resumed and costs only the recomputation; a checkpoint that
// is structurally valid but belongs to a different job or spec — wrong
// seed, spec fingerprint (step budget or physics knobs changed), kind,
// precision or grid, i.e. a checkpoint directory shared across specs —
// is a hard error, because silently ignoring it would mask the
// misconfiguration (or worse, serve the old spec's state as the new
// spec's result).
func (job *replicaJob) loadCheckpoint(store CkptStore, seed, fp uint64) (bool, int, error) {
	data, err := store.Load()
	if err != nil {
		return false, 0, err
	}
	if data == nil {
		return false, 0, nil
	}
	if !ckpt.VerifyTrailer(data) {
		// Corrupt: discard and recompute. The whole-buffer verification
		// runs before RestoreSections, so a bad checkpoint can never leave
		// the simulation half-mutated.
		store.Discard()
		return false, 0, nil
	}
	r, err := ckpt.NewReader(bytes.NewReader(data))
	if errors.Is(err, ckpt.ErrVersion) {
		// A checkpoint from a different format version (pre-upgrade
		// leftovers in a resumed sweep directory): recomputing from
		// scratch is bit-identical to having resumed, so treat it like
		// corruption rather than wedging the sweep.
		store.Discard()
		return false, 0, nil
	}
	if err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := ckpt.CheckShape(r, ckpt.KindJob, job.prec, job.cells); err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	ckSeed := r.U64()
	ckFp := r.U64()
	done := int(r.U64())
	if r.Err() != nil {
		return false, 0, r.Err()
	}
	if ckSeed != seed {
		return false, 0, fmt.Errorf("%w: seed %#x does not match job seed %#x", errForeignCheckpoint, ckSeed, seed)
	}
	if ckFp != fp {
		return false, 0, fmt.Errorf("%w: spec fingerprint %#x does not match %#x (step budget or physics parameters changed; use a fresh checkpoint directory)", errForeignCheckpoint, ckFp, fp)
	}
	if err := job.sim.RestoreSections(r); err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := ckpt.ReadAccumulator(r, job.acc); err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := r.Close(); err != nil {
		return false, 0, fmt.Errorf("job checkpoint: %w", err)
	}
	return true, done, nil
}

// errForeignCheckpoint marks a structurally valid job checkpoint that
// was written for another seed or spec.
var errForeignCheckpoint = errors.New("job checkpoint belongs to another seed or spec")

// jobCkptPath names a job's checkpoint file inside the sweep's
// checkpoint directory.
func jobCkptPath(dir string, scenarioIdx, replica int) string {
	return filepath.Join(dir, fmt.Sprintf("job-s%03d-r%03d.ckpt", scenarioIdx, replica))
}

// specFingerprint hashes every job parameter that determines the job's
// trajectory — step budget, grid, physics knobs, wall model, wedges,
// molecular model, precision, dimensionality — so a checkpoint directory
// reused after the spec changed is rejected instead of silently serving
// the old spec's state as the new spec's result. (The seed is checked
// separately; requested quantities are deliberately not fingerprinted —
// they are derived from the same accumulated moments and do not affect
// the trajectory. The pluggable Scheme override is not reachable through
// the sweep API and is therefore not fingerprinted either.)
func specFingerprint(sc Scenario, warm, sampleSteps int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(warm))
	word(uint64(sampleSteps))
	if sc.Float32 {
		word(1)
	} else {
		word(0)
	}
	switch {
	case sc.Sim != nil:
		cfg := sc.Sim
		word(2) // dimensionality tag
		word(uint64(cfg.NX))
		word(uint64(cfg.NY))
		f(cfg.NPerCell)
		f(cfg.Free.Mach)
		f(cfg.Free.Cm)
		f(cfg.Free.Lambda)
		f(cfg.Free.Gamma)
		f(cfg.PlungerTrigger)
		f(cfg.ZVib)
		word(uint64(cfg.Wall.Model))
		f(cfg.Wall.WallCm)
		word(uint64(cfg.ReservoirCapacity))
		if cfg.Wedge != nil {
			word(1)
			f(cfg.Wedge.LeadX)
			f(cfg.Wedge.Base)
			f(cfg.Wedge.Angle)
		} else {
			word(0)
		}
		if cfg.Wedge2 != nil {
			word(1)
			f(cfg.Wedge2.LeadX)
			f(cfg.Wedge2.Base)
			f(cfg.Wedge2.Angle)
		} else {
			word(0)
		}
		h.Write([]byte(cfg.Model.Name))
	case sc.Sim3 != nil:
		cfg := sc.Sim3
		word(3) // dimensionality tag
		word(uint64(cfg.NX))
		word(uint64(cfg.NY))
		word(uint64(cfg.NZ))
		f(cfg.NPerCell)
		f(cfg.Cm)
		f(cfg.Lambda)
		f(cfg.PistonSpeed)
		h.Write([]byte(cfg.Model.Name))
	}
	return h.Sum64()
}

// jobSeed derives the simulation seed of (scenario, replica) from the
// spec's base seed; see rng.JobSeed for the non-collision argument. The
// job index packs the scenario into the high word so sweeps of any
// practical width cannot overlap.
func jobSeed(base uint64, scenarioIdx, replica int) uint64 {
	return rng.JobSeed(base, uint64(scenarioIdx)<<32|uint64(uint32(replica)))
}

// shockAngleDeg fits the oblique shock angle from a density field — the
// identical analysis (sample.WedgeShockAngle) the public Field runs, so
// per-replica statistics and the fit on the cross-replica mean can never
// diverge in convention; NaN when the scenario has no wedge or no front
// is found.
func shockAngleDeg(density []float64, g grid.Grid, cfg sim.Config) float64 {
	if cfg.Wedge == nil {
		return math.NaN()
	}
	return sample.WedgeShockAngle(density, g,
		cfg.Wedge.LeadX, cfg.Wedge.Base, cfg.Wedge.Angle, cfg.Free.Mach) * 180 / math.Pi
}
