// Command wedge runs the paper's wind-tunnel experiment: Mach 4 flow over
// a 30° wedge, on either backend, and reports the validation numbers
// (shock angle, post-shock density, shock thickness) against inviscid
// theory, optionally writing the density field as CSV/PGM/ASCII.
//
// The paper's full run is:
//
//	wedge -percell 75 -steps 1200 -avg 2000
//
// which takes a while; -percell 8 -steps 600 -avg 300 gives the same
// physics at laptop scale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dsmc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wedge: ")
	var (
		backend = flag.String("backend", "reference", "reference | cm")
		perCell = flag.Float64("percell", 8, "freestream particles per cell (75 = paper scale)")
		steps   = flag.Int("steps", 600, "time steps to steady state (paper: 1200)")
		avg     = flag.Int("avg", 300, "time-averaging steps (paper: 2000)")
		lambda  = flag.Float64("lambda", 0.5, "freestream mean free path in cells (0 = near-continuum)")
		mach    = flag.Float64("mach", 4, "freestream Mach number")
		angle   = flag.Float64("angle", 30, "wedge angle, degrees")
		procs   = flag.Int("procs", 1024, "physical processors (cm backend)")
		outDir  = flag.String("out", "", "directory for density.csv / density.pgm (empty: skip)")
		ascii   = flag.Bool("ascii", false, "print the density field as ASCII")
		seed    = flag.Uint64("seed", 1988, "random seed")
	)
	flag.Parse()

	cfg := dsmc.PaperConfig()
	cfg.ParticlesPerCell = *perCell
	cfg.MeanFreePath = *lambda
	cfg.Mach = *mach
	cfg.Wedge.AngleDeg = *angle
	cfg.Seed = *seed

	var s *dsmc.Simulation
	var err error
	switch *backend {
	case "reference":
		s, err = dsmc.NewSimulation(cfg)
	case "cm":
		s, err = dsmc.NewCMSimulation(cfg, *procs)
	default:
		err = fmt.Errorf("unknown backend %q (want reference or cm)", *backend)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend=%s particles=%d (flow) + %d (reservoir)\n",
		s.Backend(), s.NFlow(), s.NReservoir())
	fmt.Printf("running %d steps to steady state...\n", *steps)
	s.Run(*steps)
	fmt.Printf("time-averaging over %d steps...\n", *avg)
	field := s.Sample(*avg).MustField(dsmc.Density)

	th := s.Theory()
	fmt.Println()
	fmt.Println("validation vs inviscid theory")
	fmt.Println("-----------------------------")
	if th.Detached {
		fmt.Println("theory: detached shock (no attached solution)")
	} else {
		fmt.Printf("shock angle:     measured %6.1f°   theory %6.1f°\n",
			field.ShockAngleDeg(), th.ShockAngleDeg)
		fmt.Printf("density ratio:   measured %6.2f    theory %6.2f\n",
			field.PostShockMean(), th.DensityRatio)
	}
	fmt.Printf("shock thickness: measured %6.1f cells (paper: 3 near-continuum, 5 rarefied)\n",
		field.ShockThickness())
	fmt.Printf("wake contrast:   measured %6.2f\n", field.WakeContrast())
	fmt.Printf("freestream:      measured %6.3f    expect  1.000\n", field.FreestreamMean())
	fmt.Printf("per-particle:    %.2f µs/particle/step (paper: CM-2 7.2, Cray-2 0.5)\n",
		s.MicrosecondsPerParticleStep())

	if *ascii {
		fmt.Println()
		fmt.Print(field.ASCII())
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		csvF, err := os.Create(filepath.Join(*outDir, "density.csv"))
		if err != nil {
			log.Fatal(err)
		}
		defer csvF.Close()
		if err := field.WriteCSV(csvF); err != nil {
			log.Fatal(err)
		}
		pgmF, err := os.Create(filepath.Join(*outDir, "density.pgm"))
		if err != nil {
			log.Fatal(err)
		}
		defer pgmF.Close()
		if err := field.WritePGM(pgmF); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s/density.{csv,pgm}\n", *outDir)
	}
}
