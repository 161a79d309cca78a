package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"dsmc"
)

// variant is the physics of one generated sweep point.
type variant struct{ mach, angle float64 }

// freshVariant draws new point physics: Mach 3 to 6 in steps of 0.01
// and a ramp of 15° to 30° in steps of 2.5°, a space large enough that
// fresh draws rarely repeat an earlier point by chance.
func freshVariant(r *rng) variant {
	return variant{mach: 3 + 0.01*float64(r.intn(301)), angle: 15 + 2.5*float64(r.intn(7))}
}

// sweepPlan is one generated sweep of a workload's fixed sequence.
type sweepPlan struct {
	name     string
	points   []variant // by point index
	replicas int
	repeatOf int   // index of the earlier sweep this one resubmits unchanged, or -1
	deps     []int // earlier sweeps that first compute a replica this one reuses
	reused   int   // replica jobs an earlier sweep already computed
}

// replicaKey identifies a replica's stored result: the memo store keys
// replicas by point physics, point index and replica index under the
// sweep's base seed, which every sweep of a sequence shares.
type replicaKey struct {
	index   int
	v       variant
	replica int
}

// genSweeps generates a workload's sweep sequence. Its shape is fixed,
// so that every seed asks for the same amount of work and reuse: sweep
// j has pts(j) points and reps(j) replicas; when repeatEvery > 0 every
// repeatEvery-th sweep resubmits an earlier one unchanged; otherwise
// point i of sweep j > 0 copies the point an earlier sweep has at index
// i when i+j is odd and draws fresh physics when it is even. The seed
// chooses the physics and which earlier sweep each copy comes from.
func genSweeps(seed uint64, n int, pts, reps func(j int) int, repeatEvery int) []sweepPlan {
	r := &rng{state: seed}
	owner := map[replicaKey]int{}
	var plans []sweepPlan
	for j := 0; j < n; j++ {
		p := sweepPlan{name: fmt.Sprintf("sweep-%03d", j), repeatOf: -1}
		var originals []int
		for k := range plans {
			if plans[k].repeatOf < 0 {
				originals = append(originals, k)
			}
		}
		if repeatEvery > 0 && j%repeatEvery == repeatEvery-1 {
			k := originals[r.intn(len(originals))]
			p.name, p.points, p.replicas, p.repeatOf = plans[k].name, plans[k].points, plans[k].replicas, k
		} else {
			p.replicas = reps(j)
			for i := 0; i < pts(j); i++ {
				// Copy from an earlier sweep with at least as many
				// replicas, or else with the most, so that how many
				// replicas a copy reuses does not depend on the seed.
				var from []int
				most := 0
				for _, k := range originals {
					if len(plans[k].points) <= i {
						continue
					}
					rk := min(plans[k].replicas, p.replicas)
					if rk > most {
						from, most = nil, rk
					}
					if rk == most {
						from = append(from, k)
					}
				}
				if len(from) > 0 && (i+j)%2 == 1 {
					p.points = append(p.points, plans[from[r.intn(len(from))]].points[i])
				} else {
					p.points = append(p.points, freshVariant(r))
				}
			}
		}
		deps := map[int]bool{}
		for i, v := range p.points {
			for rep := 0; rep < p.replicas; rep++ {
				key := replicaKey{i, v, rep}
				if k, ok := owner[key]; ok {
					deps[k] = true
					p.reused++
				} else {
					owner[key] = j
				}
			}
		}
		for k := range deps {
			p.deps = append(p.deps, k)
		}
		sort.Ints(p.deps)
		plans = append(plans, p)
	}
	return plans
}

// jobs is the sweep's replica job count.
func (p sweepPlan) jobs() int { return len(p.points) * p.replicas }

// pointName names a point by its index and physics, so equal points
// at equal indices carry equal names.
func pointName(i int, v variant) string {
	return fmt.Sprintf("p%d-m%g-a%g", i, v.mach, v.angle)
}

// spec is the sweep as submitted to RunSweep or to dsmcd.
func (p sweepPlan) spec(base dsmc.WedgeTunnel2D, warm, sample int) (dsmc.SweepSpec, error) {
	sc, err := dsmc.NewScenarioSpec(base)
	if err != nil {
		return dsmc.SweepSpec{}, err
	}
	spec := dsmc.SweepSpec{Name: p.name, Scenario: sc, Replicas: p.replicas, WarmSteps: warm, SampleSteps: sample}
	for i, v := range p.points {
		mach, angle := v.mach, v.angle
		spec.Points = append(spec.Points, dsmc.SweepPoint{Name: pointName(i, v), Mach: &mach, WedgeAngleDeg: &angle})
	}
	return spec, nil
}

// pointKey identifies a point aggregate: its index, physics and the
// replica count it averages over.
type pointKey struct {
	index    int
	v        variant
	replicas int
}

// encodePoint is a canonical byte encoding of a point aggregate — every
// float by its bit pattern — so two aggregates are byte-identical
// exactly when this encoding is.
func encodePoint(p dsmc.PointResult) []byte {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	fs := func(xs []float64) {
		u(uint64(len(xs)))
		for _, x := range xs {
			u(math.Float64bits(x))
		}
	}
	st := func(s dsmc.ScalarStats) {
		fs([]float64{s.Mean, s.Variance, s.CI95})
		u(uint64(s.N))
		u(uint64(s.Dropped))
	}
	b = append(b, p.Name...)
	u(uint64(p.Replicas))
	qs := make([]string, 0, len(p.Fields))
	for q := range p.Fields {
		qs = append(qs, string(q))
	}
	sort.Strings(qs)
	for _, q := range qs {
		f := p.Fields[dsmc.Quantity(q)]
		b = append(b, q...)
		u(uint64(f.NX))
		u(uint64(f.NY))
		u(uint64(f.NZ))
		fs(f.Mean)
		fs(f.Variance)
		fs(f.CI95)
	}
	st(p.ShockAngleDeg)
	st(p.Collisions)
	st(p.NFlow)
	return b
}
