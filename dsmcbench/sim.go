package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// simCase is a single-simulation workload: a scenario, its step budget
// and its physics check.
type simCase struct {
	scenario func(workers int) dsmc.Scenario
	warm     int // steps before the timed windows, past the transient
	// windows is the number of timed one-step windows: at least 100, so
	// that their p90 has ten samples beyond it.
	windows  int
	sample   int // steps of the sampled window
	parSteps int // steps per side of the 1- vs 2-worker comparison
	obsPairs int // metrics-on/off window pairs; 0 skips the layer
	// Computed bytes one particle moves through memory in the move and
	// sort phases: the columns each phase reads plus those it writes.
	moveBytes, sortBytes float64
	check                func(e *env, s *dsmc.Simulation, density *dsmc.Field)
}

// setupReps is how many times a run builds its simulation before the
// measured work, and again after it; setup_s is the median of them all.
const setupReps = 3

// Per-particle column bytes of the engine's float64 store: the 2D store
// holds X, Y, U, V, W, R1, R2, Evib (8 B each) and a 4 B cell index;
// the 3D store adds Z. Move reads position and velocity and writes
// position and cell; the sort's scatter reads and writes every column.
const (
	moveBytes2D = 5*8 + 2*8 + 4
	sortBytes2D = 2 * (8*8 + 4)
	moveBytes3D = 6*8 + 3*8 + 4
	sortBytes3D = 2 * (9*8 + 4)
)

func runWedge(ctx context.Context, e *env) error {
	seed := derive(e.cfg.seed, 1)
	perCell := 75.0
	c := simCase{
		warm: 250, windows: scaled(e.cfg, 7, 100), sample: 50,
		parSteps: 10, obsPairs: 8,
		moveBytes: moveBytes2D, sortBytes: sortBytes2D,
		check: checkWedge,
	}
	if e.cfg.tiny {
		perCell = 2
		c.warm, c.windows, c.sample, c.parSteps, c.obsPairs = 10, 3, 6, 2, 1
	}
	c.scenario = func(workers int) dsmc.Scenario {
		cfg := dsmc.PaperConfig()
		cfg.ParticlesPerCell = perCell
		cfg.Workers = workers
		cfg.Seed = seed
		return cfg
	}
	return runSim(ctx, e, c)
}

func runTube3D(ctx context.Context, e *env) error {
	sc := dsmc.ShockTube3D{
		GridNX: 160, GridNY: 32, GridNZ: 32,
		ThermalSpeed: 0.125, MeanFreePath: 0, PistonSpeed: 0.131,
		ParticlesPerCell: 12, Seed: derive(e.cfg.seed, 2),
	}
	c := simCase{
		warm: 20, windows: scaled(e.cfg, 7, 100), sample: 10,
		parSteps:  4,
		moveBytes: moveBytes3D, sortBytes: sortBytes3D,
	}
	if e.cfg.tiny {
		sc.GridNX, sc.GridNY, sc.GridNZ, sc.ParticlesPerCell = 40, 4, 4, 4
		c.warm, c.windows, c.sample, c.parSteps = 10, 3, 4, 2
	}
	c.check = func(e *env, s *dsmc.Simulation, density *dsmc.Field) {
		checkTube(e, s, density, sc.PistonSpeed, c.sample)
	}
	c.scenario = func(workers int) dsmc.Scenario {
		w := sc
		w.Workers = workers
		return w
	}
	return runSim(ctx, e, c)
}

// runSim builds the simulation (setupReps times, keeping the last, and
// setupReps times more after the measured work), warms it up, times the
// stepping windows, samples a window, derives every quantity and checks
// the physics. Traced, it goes on to measure the checkpoint,
// worker-scaling and metrics-overhead layers.
func runSim(ctx context.Context, e *env, c simCase) error {
	tr := e.tr
	const root = 1 // the workload span, when tracing
	var setups []float64
	build := func() (*dsmc.Simulation, error) {
		runtime.GC()
		sp := tr.begin("engine.build", root)
		t := time.Now()
		sim, err := dsmc.NewSimulation(c.scenario(numWorkers))
		setups = append(setups, time.Since(t).Seconds())
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("building the simulation: %w", err)
		}
		return sim, nil
	}
	// setup_s is the median of builds made before the run (the last one
	// runs) and after it, so that it spans the run's host conditions.
	var s *dsmc.Simulation
	for i := 0; i < setupReps; i++ {
		s = nil
		var err error
		if s, err = build(); err != nil {
			return err
		}
	}
	defer func() {
		e.e2e["setup_s"] = median(setups)
		e.info["setup_samples_s"] = setups
	}()
	ttf0 := setups[len(setups)-1]
	start := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.info["working_set_bytes"] = ms.HeapInuse

	// The warm-up runs in chunks so that a cancelled run stops promptly.
	sp := tr.begin("engine.warmup", root)
	for done := 0; done < c.warm && ctx.Err() == nil; done += 10 {
		s.Run(min(10, c.warm-done))
	}
	tr.finish(sp)

	p0, c0 := s.PhaseSeconds(), s.Collisions()
	var lat, usPP []float64
	var particleSteps, windowWall float64
	for k := 0; k < c.windows; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		n0 := s.NFlow()
		sp := tr.begin("engine.step", root)
		t := time.Now()
		s.Run(1)
		d := time.Since(t).Seconds()
		tr.finish(sp)
		n := float64(n0+s.NFlow()) / 2
		lat, usPP = append(lat, d), append(usPP, d*1e6/n)
		particleSteps += n
		windowWall += d
	}
	e.ops(c.windows, 0)
	p1, c1 := s.PhaseSeconds(), s.Collisions()

	sp = tr.begin("sample.sample", root)
	t := time.Now()
	smp := s.Sample(c.sample)
	sampleWall := time.Since(t).Seconds()
	tr.finish(sp)
	p2 := s.PhaseSeconds()
	sampled := float64(s.NFlow()) * float64(c.sample)

	sp = tr.begin("sample.field", root)
	t = time.Now()
	var density *dsmc.Field
	for _, q := range dsmc.Quantities() {
		f, err := smp.Field(q)
		if err != nil {
			tr.finish(sp)
			return fmt.Errorf("deriving %s: %w", q, err)
		}
		if q == dsmc.Density {
			density = f
		}
	}
	fieldWall := time.Since(t).Seconds()
	tr.finish(sp)
	ttf := ttf0 + time.Since(start).Seconds()
	e.ops(1, 0)

	sp = tr.begin("check.physics", root)
	c.check(e, s, density)
	tr.finish(sp)

	e.e2e["us_per_particle_step"] = median(usPP)
	e.e2e["time_to_field_s"] = ttf
	e.e2e["jobs_per_min"] = 60 / ttf
	e.e2e["submit_to_result_p50_s"] = quantile(lat, 0.5)
	e.e2e["submit_to_result_p90_s"] = quantile(lat, 0.9)
	e.e2e["peak_rss_mb"] = float64(peakRSS(os.Getpid())) / (1 << 20)
	e.info["particles"] = s.NFlow()
	e.info["steps"] = s.StepCount()
	e.info["windows"] = len(lat)
	e.info["window_us_pp_iqr_frac"] = (quantile(usPP, 0.75) - quantile(usPP, 0.25)) / median(usPP)
	for i := 0; i < setupReps; i++ {
		if _, err := build(); err != nil {
			return err
		}
	}
	runtime.GC()
	if !e.cfg.trace {
		return nil
	}

	// Engine phases over the timed windows.
	phase := func(prefix string) float64 {
		var t float64
		for k, v := range p1 {
			if strings.HasPrefix(k, prefix) {
				t += v - p0[k]
			}
		}
		return t
	}
	move, srt := phase("move"), phase("sort")
	e.layer["engine.move_ns_pp"] = move * 1e9 / particleSteps
	e.layer["engine.sort_ns_pp"] = srt * 1e9 / particleSteps
	e.layer["engine.select_ns_pp"] = phase("select") * 1e9 / particleSteps
	e.layer["engine.collide_ns_pp"] = phase("collide") * 1e9 / particleSteps
	e.layer["engine.other_frac"] = (windowWall - phase("")) / windowWall
	e.layer["engine.collisions_pp"] = float64(c1-c0) / particleSteps
	extra := map[string]float64{}
	for k, v := range p1 {
		if !strings.HasPrefix(k, "move") && !strings.HasPrefix(k, "sort") &&
			!strings.HasPrefix(k, "select") && !strings.HasPrefix(k, "collide") {
			extra["engine."+k+"_ns_pp"] = (v - p0[k]) * 1e9 / particleSteps
		}
	}
	e.info["engine_extra_phases"] = extra
	e.moveBytes, e.moveSec = c.moveBytes*particleSteps, move
	e.sortBytes, e.sortSec = c.sortBytes*particleSteps, srt
	var samplePhases float64
	for k, v := range p2 {
		samplePhases += v - p1[k]
	}
	e.layer["engine.sample_ns_pp"] = (sampleWall - samplePhases) * 1e9 / sampled
	e.layer["sample.field_ms"] = fieldWall * 1e3

	if c.obsPairs > 0 {
		e.layer["obs.overhead_frac"] = obsOverhead(e, s, c)
	}
	return checkpointLayers(e, s, c)
}

// obsWindowSteps is the length of each metrics-on and metrics-off window.
const obsWindowSteps = 5

// obsOverhead alternates metrics-on and metrics-off windows on the
// running simulation, so host drift hits both modes alike, and returns
// the on/off ratio of their medians minus one.
func obsOverhead(e *env, s *dsmc.Simulation, c simCase) float64 {
	defer obs.SetEnabled(true)
	var on, off []float64
	for k := 0; k < c.obsPairs; k++ {
		for _, enabled := range []bool{true, false} {
			obs.SetEnabled(enabled)
			sp := e.tr.begin("obs.step", 1)
			t := time.Now()
			s.Run(obsWindowSteps)
			d := time.Since(t).Seconds()
			e.tr.finish(sp)
			if enabled {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	e.ops(2*c.obsPairs, 0)
	return median(on)/median(off) - 1
}

// checkpointLayers checkpoints the simulation, restores the checkpoint
// into a 1-worker and a 2-worker simulation, alternates timed windows
// on the two, and checks that both reach the same density field.
func checkpointLayers(e *env, s *dsmc.Simulation, c simCase) error {
	tr := e.tr
	var buf bytes.Buffer
	sp := tr.begin("ckpt.write", 1)
	t := time.Now()
	err := s.Checkpoint(&buf)
	e.layer["ckpt.write_ms"] = time.Since(t).Seconds() * 1e3
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	e.layer["ckpt.bytes_pp"] = float64(buf.Len()) / float64(s.NFlow())
	s = nil
	runtime.GC()

	var restores []float64
	restored := func(workers int) (*dsmc.Simulation, error) {
		sp := tr.begin("engine.build", 1)
		sim, err := dsmc.NewSimulation(c.scenario(workers))
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("ckpt.restore", 1)
		t := time.Now()
		err = sim.Restore(bytes.NewReader(buf.Bytes()))
		restores = append(restores, time.Since(t).Seconds())
		tr.finish(sp)
		return sim, err
	}
	one, err := restored(1)
	if err != nil {
		return fmt.Errorf("restoring at 1 worker: %w", err)
	}
	two, err := restored(numWorkers)
	if err != nil {
		return fmt.Errorf("restoring at %d workers: %w", numWorkers, err)
	}
	buf = bytes.Buffer{}
	e.layer["ckpt.restore_ms"] = median(restores) * 1e3

	var t1, t2 float64
	half := max(1, c.parSteps/2)
	for k := 0; k < 2; k++ {
		for _, side := range []struct {
			sim *dsmc.Simulation
			t   *float64
		}{{one, &t1}, {two, &t2}} {
			sp := tr.begin("par.step", 1)
			t := time.Now()
			side.sim.Run(half)
			*side.t += time.Since(t).Seconds()
			tr.finish(sp)
		}
	}
	e.ops(4, 0)
	e.layer["par.scaling_eff"] = t1 / (numWorkers * t2)

	sp = tr.begin("check.restore_hash", 1)
	h1 := hashFloats(one.Sample(2).MustField(dsmc.Density).Data)
	h2 := hashFloats(two.Sample(2).MustField(dsmc.Density).Data)
	tr.finish(sp)
	e.check("restore_hash_1v2", h1 == h2, "density hash after restoring at 1 worker %016x, at %d workers %016x", h1, numWorkers, h2)
	return nil
}

// checkWedge compares the paper's wedge flow with oblique-shock theory:
// the shock angle within 1.5° and the post-shock density rise within 8%.
func checkWedge(e *env, s *dsmc.Simulation, density *dsmc.Field) {
	th := s.Theory()
	angle := density.ShockAngleDeg()
	e.check("wedge_shock_angle", math.Abs(angle-th.ShockAngleDeg) <= 1.5,
		"shock angle %.2f°, theory %.2f°, tolerance 1.5°", angle, th.ShockAngleDeg)
	rise := density.PostShockMean()
	e.check("wedge_density_rise", math.Abs(rise/th.DensityRatio-1) <= 0.08,
		"post-shock density %.3f, theory %.3f, tolerance 8%%", rise, th.DensityRatio)
}

// checkTube compares the 3D shock tube with the piston-shock solution:
// the shock front within 2 cells (or 10%) of where the theoretical
// shock speed puts it at the middle of the sampled window, and the
// post-shock plateau density within 8% of the Rankine–Hugoniot ratio.
func checkTube(e *env, s *dsmc.Simulation, density *dsmc.Field, pistonSpeed float64, sampleSteps int) {
	th := s.Theory()
	prof := density.ProfileX()
	piston := pistonSpeed * float64(s.StepCount())
	front := shockFront(prof, piston, th.DensityRatio)
	want := th.ShockSpeed * (float64(s.StepCount()) - float64(sampleSteps)/2)
	e.check("tube_shock_position", math.Abs(front-want) <= math.Max(2, 0.1*want),
		"shock front at x=%.2f cells, theory %.2f, tolerance max(2 cells, 10%%)", front, want)
	lo, hi := int(piston)+2, int(front)-3
	plateau := math.NaN()
	if hi-lo >= 2 && hi <= len(prof) {
		plateau = 0
		for _, v := range prof[lo:hi] {
			plateau += v
		}
		plateau /= float64(hi - lo)
	}
	e.check("tube_density_ratio", math.Abs(plateau/th.DensityRatio-1) <= 0.08,
		"post-shock density %.3f over cells [%d,%d), theory %.3f, tolerance 8%%", plateau, lo, hi, th.DensityRatio)
}

// shockFront locates the half-rise crossing of a density profile,
// scanning downstream from the piston; NaN if no front is found.
func shockFront(prof []float64, pistonX, ratio float64) float64 {
	level := (1 + ratio) / 2
	for ix := max(0, int(pistonX)); ix+1 < len(prof); ix++ {
		if prof[ix] >= level && prof[ix+1] < level {
			return float64(ix) + 0.5 + (prof[ix]-level)/(prof[ix]-prof[ix+1])
		}
	}
	return math.NaN()
}
