package dsmc

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dsmc/internal/ckpt"
)

// Fuzz targets for the two checkpoint decoders that read files a later
// process finds on disk: a sweep job's checkpoint and a standalone
// Simulation checkpoint. Each harness re-seals the FNV trailer over the
// mutated bytes, so mutations get past the checksum and into the
// section decoders. The property: decoding never panics, and a decode
// that succeeds restores a state that checkpoints back to the very same
// bytes. Seeds are real checkpoints of every engine instantiation.

// fuzzScenarios are tiny scenarios of the four engine instantiations
// (2D and 3D, float64 and float32).
func fuzzScenarios() []Scenario {
	wedge := WedgeTunnel2D{
		GridNX: 16, GridNY: 8,
		Wedge:            WedgeSpec{LeadX: 4, Base: 6, AngleDeg: 30},
		Mach:             4,
		ThermalSpeed:     0.125,
		MeanFreePath:     0.5,
		ParticlesPerCell: 2,
		Workers:          1,
		Seed:             3,
	}
	tube := ShockTube3D{
		GridNX: 8, GridNY: 4, GridNZ: 4,
		ThermalSpeed:     0.125,
		MeanFreePath:     0.5,
		PistonSpeed:      0.1,
		ParticlesPerCell: 2,
		Workers:          1,
		Seed:             3,
	}
	wedge32, tube32 := wedge, tube
	wedge32.Precision, tube32.Precision = Float32, Float32
	return []Scenario{wedge, wedge32, tube, tube32}
}

// reseal recomputes a checkpoint's FNV trailer over its payload.
func reseal(data []byte) []byte {
	if len(data) < ckpt.TrailerSize {
		return data
	}
	data = append([]byte(nil), data...)
	h := fnv.New64a()
	h.Write(data[:len(data)-ckpt.TrailerSize])
	binary.LittleEndian.PutUint64(data[len(data)-ckpt.TrailerSize:], h.Sum64())
	return data
}

// memCheckpoint is an in-memory JobCheckpoint that records discards.
type memCheckpoint struct {
	data      []byte
	discarded bool
}

func (m *memCheckpoint) Load() ([]byte, error)  { return m.data, nil }
func (m *memCheckpoint) Save(data []byte) error { m.data = append([]byte(nil), data...); return nil }
func (m *memCheckpoint) Discard() error         { m.discarded = true; return nil }

// The job under fuzz: seed, step budget and fingerprint are fixed, so
// seeds carry matching words and mutations explore the sections.
const (
	fuzzJobSeed          = 5
	fuzzWarm, fuzzSample = 3, 3
)

// fuzzJob builds scenario i's job simulation and sampling pass.
func fuzzJob(t testing.TB, i int) (*Simulation, *Sampling, uint64) {
	p, err := fuzzScenarios()[i].lower()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(p.withSeed(fuzzJobSeed))
	if err != nil {
		t.Fatal(err)
	}
	return s, s.newSampling(), p.fingerprint(fuzzWarm, fuzzSample)
}

func FuzzJobCheckpoint(f *testing.F) {
	n := len(fuzzScenarios())
	for i := 0; i < n; i++ {
		s, smp, fp := fuzzJob(f, i)
		for k := 0; k < fuzzWarm+1; k++ {
			s.Step()
			if k >= fuzzWarm {
				s.accumulate(smp)
			}
		}
		var ck memCheckpoint
		if err := s.saveJobCheckpoint(&ck, smp, fuzzJobSeed, fp, fuzzWarm+1); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), ck.data)
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		i := int(sel) % n
		s, smp, fp := fuzzJob(t, i)
		in := &memCheckpoint{data: reseal(data)}
		done, err := s.loadJobCheckpoint(in, smp, fuzzJobSeed, fp, fuzzWarm+fuzzSample)
		if err != nil || in.discarded {
			return
		}
		var out memCheckpoint
		if err := s.saveJobCheckpoint(&out, smp, fuzzJobSeed, fp, done); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.data, in.data) {
			t.Errorf("scenario %d: restored job checkpoints to different bytes (%d in, %d out)", i, len(in.data), len(out.data))
		}
	})
}

func FuzzSimulationRestore(f *testing.F) {
	scs := fuzzScenarios()
	for i, sc := range scs {
		s, err := NewSimulation(sc)
		if err != nil {
			f.Fatal(err)
		}
		s.Run(4)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		i := int(sel) % len(scs)
		s, err := NewSimulation(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		in := reseal(data)
		if err := s.Restore(bytes.NewReader(in)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Checkpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Errorf("scenario %d: restored simulation checkpoints to different bytes (%d in, %d out)", i, len(in), out.Len())
		}
	})
}
