package dsmc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"dsmc/internal/ckpt"
	"dsmc/internal/geom"
	"dsmc/internal/run"
)

// This file is a sweep's replica job: one replica of one point, built
// by the function NewSimulation builds with, sampled through the
// Sampling that Simulation.Sample returns, and fitted with
// Field.ShockAngleDeg. RunSweep hands it to internal/run's scheduler;
// RunSweepJob runs it directly for a distributed worker. With a
// checkpoint store the job persists its progress and resumes exactly.

// runReplica executes replica `replica` of point `point` of a lowered
// sweep: warm to steady state, then sample every step into the
// one-pass moment accumulator, and derive the requested quantity fields
// at the end. The job's seed is run.JobSeed of the sweep's base seed,
// so replicas are independent by construction and a sweep is
// reproducible from (spec, base seed) alone.
//
// With io.Checkpoint set the job saves every io.CheckpointEvery steps
// (default 50) and resumes from the last save; the restored run is
// bit-identical to an uninterrupted one, because the checkpoint carries
// the full engine, domain and accumulator state and the step sequence
// does not depend on chunk boundaries. Cancellation is checked after
// every step: a cancelled job saves a checkpoint at whatever step it
// reached (the state is consistent after any full step) and returns
// ctx.Err(), so graceful shutdown loses no work.
func runReplica(ctx context.Context, sp *run.Spec, p *plan, point, replica int, io SweepJobIO) (*run.ReplicaResult, error) {
	name := sp.Points[point].Name
	seed := run.JobSeed(sp.BaseSeed, point, replica)
	fp := sp.Points[point].Fp
	s, err := newSimulation(p.withSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("dsmc: point %q: %w", name, err)
	}
	if trace := io.OnStepTrace; trace != nil {
		// The flight-recorder feed: per-step phase timings straight off
		// the engine's existing clock chokepoint. Purely observational —
		// the observer sees durations, never touches state.
		s.ref.SetStepObserver(func(step int, phaseNs [4]int64, particles int) {
			trace(StepTrace{Step: step, PhaseNs: phaseNs, Particles: particles})
		})
	}
	smp := s.newSampling()
	ck, every := io.Checkpoint, io.CheckpointEvery
	if every <= 0 {
		every = 50
	}

	done := 0 // steps completed, warm and sampling combined
	warm, total := sp.WarmSteps, sp.WarmSteps+sp.SampleSteps
	if ck != nil {
		if done, err = s.loadJobCheckpoint(ck, smp, seed, fp, total); err != nil {
			return nil, err
		}
	}
	if io.Progress != nil {
		io.Progress(done, total)
	}
	for done < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := total - done
		if ck != nil && chunk > every {
			chunk = every
		}
		for k := 0; k < chunk; k++ {
			s.Step()
			if done+k+1 > warm {
				s.accumulate(smp)
			}
			if ctx.Err() != nil {
				// Best-effort checkpoint of the in-flight state; the job is
				// abandoning anyway, so a failed save only costs
				// recomputation.
				if ck != nil {
					_ = s.saveJobCheckpoint(ck, smp, seed, fp, done+k+1)
				}
				return nil, ctx.Err()
			}
		}
		done += chunk
		if ck != nil {
			if err := s.saveJobCheckpoint(ck, smp, seed, fp, done); err != nil {
				return nil, err
			}
		}
		if io.Progress != nil {
			io.Progress(done, total)
		}
	}

	res := &run.ReplicaResult{
		Fields:        make(map[string][]float64, len(sp.Quantities)),
		ShockAngleDeg: math.NaN(),
		Collisions:    s.Collisions(),
		NFlow:         s.NFlow(),
	}
	for _, q := range sp.Quantities {
		f, err := smp.Field(Quantity(q))
		if err != nil {
			return nil, fmt.Errorf("dsmc: point %q: %w", name, err)
		}
		res.Fields[q] = f.Data
		// Density is always sampled (lowerSpec adds it); the shock-angle
		// fit runs on it.
		if f.Quantity == Density {
			res.ShockAngleDeg = f.ShockAngleDeg()
		}
	}
	return res, nil
}

// withSeed returns a copy of the plan whose backend config carries the
// given seed.
func (p *plan) withSeed(seed uint64) *plan {
	q := *p
	if p.sim != nil {
		c := *p.sim
		c.Seed = seed
		q.sim = &c
	}
	if p.sim3 != nil {
		c := *p.sim3
		c.Seed = seed
		q.sim3 = &c
	}
	return &q
}

// ckptPrec is the checkpoint precision tag of the plan's storage
// precision.
func (p *plan) ckptPrec() ckpt.Prec {
	if p.precision == Float32 {
		return ckpt.PrecF32
	}
	return ckpt.PrecF64
}

// saveJobCheckpoint serializes the job state — progress counters, the
// full simulation, and the sampling accumulator — and hands the bytes to
// the store, which persists them atomically (the file store via
// write-temp/fsync/rename, the distributed worker via an idempotent
// upload). If the medium still delivers a corrupt buffer later,
// loadJobCheckpoint detects it by checksum and falls back to a fresh
// (bit-identical) run rather than wedging the sweep.
func (s *Simulation) saveJobCheckpoint(store JobCheckpoint, smp *Sampling, seed, fp uint64, done int) error {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf, ckpt.KindJob, s.p.ckptPrec(), s.p.cells())
	w.U64(seed)
	w.U64(fp)
	w.U64(uint64(done))
	s.ref.CheckpointSections(w)
	ckpt.WriteAccumulator(w, smp.acc)
	if err := w.Close(); err != nil {
		return err
	}
	return store.Save(buf.Bytes())
}

// loadJobCheckpoint restores a job checkpoint if one exists, returning
// the completed step count (0 when nothing was restored).
//
// Failure policy: a checkpoint that is merely corrupt (torn write,
// disk damage — detected by the checksum trailer before any state is
// applied) or from another format version is discarded and the job
// starts fresh, which is bit-identical to having resumed and costs only
// the recomputation; a checkpoint that is structurally valid but belongs
// to a different job or spec — wrong seed, spec fingerprint (step budget
// or physics knobs changed), kind, precision or grid, i.e. a checkpoint
// directory shared across specs — is a hard error, because silently
// ignoring it would mask the misconfiguration (or worse, serve the old
// spec's state as the new spec's result).
func (s *Simulation) loadJobCheckpoint(store JobCheckpoint, smp *Sampling, seed, fp uint64, total int) (int, error) {
	data, err := store.Load()
	if err != nil || data == nil {
		return 0, err
	}
	if !ckpt.VerifyTrailer(data) {
		// The whole-buffer verification runs before RestoreSections, so a
		// bad checkpoint can never leave the simulation half-mutated.
		store.Discard()
		return 0, nil
	}
	r, err := ckpt.NewReader(bytes.NewReader(data))
	if errors.Is(err, ckpt.ErrVersion) {
		store.Discard()
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := ckpt.CheckShape(r, ckpt.KindJob, s.p.ckptPrec(), s.p.cells()); err != nil {
		return 0, fmt.Errorf("job checkpoint: %w", err)
	}
	ckSeed, ckFp, done := r.U64(), r.U64(), r.U64()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if ckSeed != seed {
		return 0, fmt.Errorf("%w: seed %#x does not match job seed %#x", errForeignCheckpoint, ckSeed, seed)
	}
	if ckFp != fp {
		return 0, fmt.Errorf("%w: spec fingerprint %#x does not match %#x (step budget or physics parameters changed; use a fresh checkpoint directory)", errForeignCheckpoint, ckFp, fp)
	}
	if done > uint64(total) {
		return 0, fmt.Errorf("job checkpoint: %w: %d steps done of %d", ckpt.ErrShape, done, total)
	}
	if err := s.ref.RestoreSections(r); err != nil {
		return 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := ckpt.ReadAccumulator(r, smp.acc); err != nil {
		return 0, fmt.Errorf("job checkpoint: %w", err)
	}
	if err := r.Close(); err != nil {
		return 0, fmt.Errorf("job checkpoint: %w", err)
	}
	return int(done), nil
}

// errForeignCheckpoint marks a structurally valid job checkpoint that
// was written for another seed or spec.
var errForeignCheckpoint = errors.New("job checkpoint belongs to another seed or spec")

// fingerprint hashes every job parameter that determines a replica's
// trajectory — step budget, grid, physics knobs, wall model, wedges,
// molecular model, precision, dimensionality — so a checkpoint directory
// reused after the spec changed is rejected instead of silently serving
// the old spec's state as the new spec's result, and so result-store
// keys change with the physics. (The seed is checked separately;
// requested quantities are deliberately not fingerprinted — they are
// derived from the same accumulated moments and do not affect the
// trajectory — and neither is the worker count, which cannot change the
// bits.)
func (p *plan) fingerprint(warm, sampleSteps int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(warm))
	word(uint64(sampleSteps))
	if p.precision == Float32 {
		word(1)
	} else {
		word(0)
	}
	switch {
	case p.sim != nil:
		cfg := p.sim
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
		for _, w := range []*geom.Wedge{cfg.Wedge, cfg.Wedge2} {
			if w != nil {
				word(1)
				f(w.LeadX)
				f(w.Base)
				f(w.Angle)
			} else {
				word(0)
			}
		}
		h.Write([]byte(cfg.Model.Name))
	case p.sim3 != nil:
		cfg := p.sim3
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
