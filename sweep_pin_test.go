package dsmc_test

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dsmc"
)

// The sweep pins below fix the bits a sweep leaves behind for later
// processes to find: the aggregates, the result-store key of every job
// (a ResultStoreDir or dsmcd data dir is only reusable while these keys
// hold), and the seed and spec-fingerprint words of a job checkpoint
// (a CheckpointDir is only resumable while those hold), plus the hash
// of that whole checkpoint file. One sweep runs
// the float64 wedge tunnel, the other the float32 3D shock tube, so both
// dimensionalities and both precisions of the replica job are covered.

// pinHash accumulates an FNV-1a hash over words, strings and float bits.
type pinHash uint64

func newPinHash() pinHash { return 14695981039346656037 }

func (h *pinHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= pinHash((v >> (8 * i)) & 0xff)
		*h *= 1099511628211
	}
}

func (h *pinHash) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*h ^= pinHash(s[i])
		*h *= 1099511628211
	}
}

func (h *pinHash) floats(vs []float64) {
	h.word(uint64(len(vs)))
	for _, v := range vs {
		h.word(math.Float64bits(v))
	}
}

func (h *pinHash) scalar(s dsmc.ScalarStats) {
	h.floats([]float64{s.Mean, s.Variance, s.CI95})
	h.word(uint64(s.N))
	h.word(uint64(s.Dropped))
}

// hashSweepResult hashes every aggregate of a sweep result bit for bit.
func hashSweepResult(res *dsmc.SweepResult) uint64 {
	h := newPinHash()
	for _, p := range res.Points {
		h.str(p.Name)
		h.str(p.Kind)
		h.word(uint64(p.Replicas))
		qs := make([]string, 0, len(p.Fields))
		for q := range p.Fields {
			qs = append(qs, string(q))
		}
		sort.Strings(qs)
		for _, q := range qs {
			fs := p.Fields[dsmc.Quantity(q)]
			h.str(q)
			h.word(uint64(fs.NX))
			h.word(uint64(fs.NY))
			h.word(uint64(fs.NZ))
			h.floats(fs.Mean)
			h.floats(fs.Variance)
			h.floats(fs.CI95)
		}
		h.scalar(p.ShockAngleDeg)
		h.scalar(p.Collisions)
		h.scalar(p.NFlow)
	}
	return uint64(h)
}

func TestSweepPins(t *testing.T) {
	tube := dsmc.ShockTube3D{
		GridNX: 24, GridNY: 6, GridNZ: 6,
		ThermalSpeed:     0.125,
		MeanFreePath:     0.5,
		PistonSpeed:      0.1,
		ParticlesPerCell: 4,
		Precision:        dsmc.Float32,
		Seed:             11,
	}
	cases := []struct {
		name     string
		scenario dsmc.Scenario
		points   []dsmc.SweepPoint
		qs       []dsmc.Quantity
		// Pinned values.
		aggregates uint64
		storeKeys  uint64
		firstKey   string
		seed, fp   uint64
		frame      uint64 // FNV-1a of the whole checkpoint file
	}{
		{
			name:     "wedge-f64",
			scenario: smallPublicConfig(),
			points: []dsmc.SweepPoint{
				{Name: "near-continuum", MeanFreePath: f64(0)},
				{Name: "rarefied", MeanFreePath: f64(0.5)},
			},
			qs:         []dsmc.Quantity{dsmc.Density, dsmc.Temperature},
			aggregates: 0x3aa8d9f71b16c271,
			storeKeys:  0xe3b5a0fbffd7d685,
			firstKey:   "out-be04d7cb64a6f0f4-0000000000000007-p000-r000",
			seed:       0x38f9403684008cbe,
			fp:         0xba085c2f859955ba,
			frame:      0xa9a9e6edfa87d343,
		},
		{
			name:     "tube3d-f32",
			scenario: tube,
			points: []dsmc.SweepPoint{
				{Name: "slow", PistonSpeed: f64(0.1)},
				{Name: "fast", PistonSpeed: f64(0.2)},
			},
			qs:         []dsmc.Quantity{dsmc.Density, dsmc.VelocityX},
			aggregates: 0xd2bd377fba775d99,
			storeKeys:  0xca844ecefa2b4eff,
			firstKey:   "out-07be3615373f3643-000000000000000b-p000-r000",
			seed:       0x511ced5aaa95ceea,
			fp:         0x5dcc2721a6bbb8b8,
			frame:      0xe19801857dfb2b60,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := dsmc.SweepSpec{
				Name:            tc.name,
				Scenario:        scenarioSpec(t, tc.scenario),
				Quantities:      tc.qs,
				Points:          tc.points,
				Replicas:        2,
				WarmSteps:       6,
				SampleSteps:     6,
				Pool:            2,
				CheckpointDir:   dir,
				CheckpointEvery: 4,
			}
			res, err := dsmc.RunSweep(context.Background(), spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashSweepResult(res); got != tc.aggregates {
				t.Errorf("aggregates hash %#016x, pinned %#016x", got, tc.aggregates)
			}

			jobs, err := dsmc.SweepJobs(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := newPinHash()
			for _, j := range jobs {
				h.str(j.StoreKey)
			}
			if got := uint64(h); got != tc.storeKeys {
				t.Errorf("store keys hash %#016x, pinned %#016x", got, tc.storeKeys)
			}
			if jobs[0].StoreKey != tc.firstKey {
				t.Errorf("first store key %q, pinned %q", jobs[0].StoreKey, tc.firstKey)
			}

			// The job checkpoint header is five words (magic, version,
			// kind, precision, cells); the job's seed, spec fingerprint and
			// completed step count follow.
			raw, err := os.ReadFile(filepath.Join(dir, "job-s001-r001.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			seed := binary.LittleEndian.Uint64(raw[40:48])
			fp := binary.LittleEndian.Uint64(raw[48:56])
			done := binary.LittleEndian.Uint64(raw[56:64])
			if seed != tc.seed || fp != tc.fp {
				t.Errorf("checkpoint seed %#016x fp %#016x, pinned seed %#016x fp %#016x", seed, fp, tc.seed, tc.fp)
			}
			if done != 12 {
				t.Errorf("checkpoint records %d steps done, want 12", done)
			}
			fh := newPinHash()
			fh.str(string(raw))
			if got := uint64(fh); got != tc.frame {
				t.Errorf("checkpoint frame hash %#016x, pinned %#016x", got, tc.frame)
			}
		})
	}
}
