// Scatter-path invariance: the sort picks the direct or the tiled
// scatter from the grid's cell count, and either path must reproduce the
// recorded golden hashes at any worker count, including counts past the
// host's cores. The golden grids (1,152 and 640 cells) take the direct
// path; tiledConfig2D's 34,000 cells (a partial last cell block) take
// the tiled one. Its golden was recorded when every grid above 256
// cells was tiled, so it pins the tiled scatter end to end. The float32
// instantiations have no recorded goldens (they are not bit-equal to
// float64 by construction), so each scenario instead pins every worker
// count to its own single-worker float32 run.
package golden_test

import (
	"testing"

	"dsmc/internal/golden"
	"dsmc/internal/kernel"
	"dsmc/internal/sim"
	"dsmc/internal/sim3"
)

// matrixWorkers are the worker counts every scenario must be invariant
// under: below, at and above typical core counts.
var matrixWorkers = []int{1, 4, 8}

// directMaxCells mirrors the par sort's direct-scatter limit, so the
// tiled scenario can assert that it really runs the tiled scatter.
const directMaxCells = 1 << 15

// tiledConfig2D is goldenConfig2D on a 200×170 grid at 2 particles per
// cell: above directMaxCells, and 34,000 is not a multiple of the
// 256-cell block.
func tiledConfig2D() sim.Config {
	cfg := goldenConfig2D()
	cfg.NX, cfg.NY = 200, 170
	cfg.NPerCell = 2
	return cfg
}

func hash2D[F kernel.Float](t *testing.T, cfg sim.Config, steps int) uint64 {
	t.Helper()
	s, err := sim.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	return golden.HashSim2D(s)
}

func hash3D[F kernel.Float](t *testing.T, cfg sim3.Config, steps int) uint64 {
	t.Helper()
	s, err := sim3.NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	return golden.HashSim3D(s)
}

// checkMatrix runs one scenario at every worker count in both
// precisions: float64 must hash to the recorded golden, float32 to the
// scenario's single-worker float32 run.
func checkMatrix(t *testing.T, want uint64, run64, run32 func(workers int) uint64) {
	t.Helper()
	want32 := run32(1)
	for _, workers := range matrixWorkers {
		if got := run64(workers); got != want {
			t.Errorf("float64 workers=%d: hash %#016x, golden %#016x", workers, got, want)
		}
		if workers == 1 {
			continue
		}
		if got := run32(workers); got != want32 {
			t.Errorf("float32 workers=%d: hash %#016x, want %#016x", workers, got, want32)
		}
	}
}

// TestTiling2D: the 2D wind tunnel on both scatter paths.
func TestTiling2D(t *testing.T) {
	const steps = 12
	cases := []struct {
		name string
		cfg  sim.Config
		want uint64
	}{
		{"direct", goldenConfig2D(), 0x5fc1c3b82b975c74}, // TestGolden2D/specular
		{"tiled", tiledConfig2D(), 0x6cec0666448e2e78},
	}
	if cfg := tiledConfig2D(); cfg.NX*cfg.NY <= directMaxCells {
		t.Fatalf("tiledConfig2D has %d cells, want more than %d", cfg.NX*cfg.NY, directMaxCells)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withWorkers := func(workers int) sim.Config {
				cfg := tc.cfg
				cfg.Workers = workers
				return cfg
			}
			checkMatrix(t, tc.want,
				func(w int) uint64 { return hash2D[float64](t, withWorkers(w), steps) },
				func(w int) uint64 { return hash2D[float32](t, withWorkers(w), steps) })
		})
	}
}

// TestTiling3D: likewise for the 3D shock tube (fused select style,
// piston boundary, no membership changes).
func TestTiling3D(t *testing.T) {
	const steps = 12
	const want = 0x5a415e622c33dc10 // TestGolden3D/rarefied

	withWorkers := func(workers int) sim3.Config {
		return sim3.Config{
			NX: 40, NY: 4, NZ: 4,
			Cm: 0.125, Lambda: 0.5, PistonSpeed: 0.131,
			NPerCell: 8, Seed: 99,
			Workers: workers,
		}
	}
	checkMatrix(t, want,
		func(w int) uint64 { return hash3D[float64](t, withWorkers(w), steps) },
		func(w int) uint64 { return hash3D[float32](t, withWorkers(w), steps) })
}
