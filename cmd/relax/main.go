// Command relax demonstrates the paper's reservoir mechanism and compares
// the collision-partner selection schemes the paper discusses.
//
// Particles removed through the downstream boundary are re-velocitied
// with a rectangular (uniform) distribution — kurtosis 1.8 — because
// sampling a Gaussian directly would need transcendental functions or
// repeated random numbers. Collisions with other reservoir particles then
// relax them to the correct Gaussian (kurtosis 3.0) within a few steps,
// which is why the paper calls the reservoir "useful work from these
// otherwise idle processors". The first table follows that relaxation
// step by step.
//
// The second table runs the same homogeneous relaxation under each
// scheme — McDonald–Baganoff (the paper's), Bird's time counter, Nanbu's
// scheme, and Ploss's O(N) reformulation — and checks that the cell's
// energy is conserved; the third compares their cost scaling.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dsmc/internal/baseline"
	"dsmc/internal/collide"
	"dsmc/internal/molec"
	"dsmc/internal/particle"
	"dsmc/internal/report"
	"dsmc/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("relax: ")
	var (
		n     = flag.Int("n", 20000, "particles in the box")
		steps = flag.Int("steps", 20, "relaxation steps")
		pInf  = flag.Float64("p", 0.5, "freestream collision probability")
		seed  = flag.Uint64("seed", 7, "random seed")
	)
	flag.Parse()

	// The reservoir itself: rectangular deposits relaxing to a Gaussian.
	r := rng.NewStream(*seed)
	res := particle.NewReservoir(*n, 0.25)
	res.DepositN(*n, &r)
	reservoir := report.NewTable("Reservoir relaxation: rectangular -> Gaussian",
		"step", "kurtosis (1.8 rect, 3.0 Gauss)", "variance")
	for step := 0; step <= *steps; step++ {
		_, variance, kurt := res.Moments()
		reservoir.AddRow(step, kurt, variance)
		res.Relax(&r)
	}
	if err := reservoir.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	schemes := []baseline.Scheme{
		baseline.NewBM(),
		baseline.NewBirdTC(),
		baseline.Nanbu{},
		baseline.Ploss{},
	}
	rule := collide.Rule{
		Model: molec.Maxwell(),
		PInf:  *pInf,
		NInf:  float64(*n),
		GInf:  1,
	}
	table := report.NewTable(
		"Rectangular -> Gaussian relaxation (kurtosis 1.8 -> 3.0)",
		"scheme", "kurt(0)", fmt.Sprintf("kurt(%d)", *steps),
		"energy drift %", "collisions", "time")
	for _, scheme := range schemes {
		r := rng.NewStream(*seed)
		parts := baseline.RectangularEnsemble(*n, 0.25, &r)
		m0 := baseline.MeasureMoments(parts)
		t0 := time.Now()
		collisions := baseline.Relax(scheme, parts, 1, rule, *steps, &r)
		dt := time.Since(t0)
		m1 := baseline.MeasureMoments(parts)
		drift := 100 * (m1.Energy - m0.Energy) / m0.Energy
		table.AddRow(scheme.Name(), m0.Kurtosis, m1.Kurtosis, drift, collisions, dt)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnote: Nanbu and Ploss conserve energy only in the mean (the paper's")
	fmt.Println("criticism); McDonald–Baganoff and Bird conserve it in every collision.")

	// O(N²) vs O(N): double the box and compare Nanbu against Ploss.
	scaling := report.NewTable("Cost scaling with cell population", "scheme", "N", "2N", "ratio")
	for _, scheme := range []baseline.Scheme{baseline.Nanbu{}, baseline.Ploss{}, baseline.NewBM()} {
		r := rng.NewStream(*seed)
		t1 := timeScheme(scheme, *n, rule, &r)
		rule2 := rule
		rule2.NInf = float64(2 * *n)
		t2 := timeScheme(scheme, 2**n, rule2, &r)
		scaling.AddRow(scheme.Name(), t1, t2, float64(t2)/float64(t1))
	}
	fmt.Println()
	if err := scaling.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNanbu's ratio approaches 4 (O(N²)); Ploss and McDonald–Baganoff stay near 2 (O(N)).")
}

func timeScheme(s baseline.Scheme, n int, rule collide.Rule, r *rng.Stream) time.Duration {
	parts := baseline.EquilibriumEnsemble(n, 0.25, r)
	t0 := time.Now()
	baseline.Relax(s, parts, 1, rule, 3, r)
	return time.Since(t0)
}
