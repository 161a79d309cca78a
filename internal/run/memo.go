package run

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dsmc/internal/store"
)

// This file is the sweep-memoization bridge between the job core and
// the content-addressed result store: key derivation from the
// determinism contract, the aggregate artifact codec, and the
// load/publish hooks run around every replica job and point fan-in.
//
// A replica's bits are a pure function of (trajectory fingerprint,
// master seed, point index, replica index) — Point.Fp pins the
// trajectory, JobSeed derives the job's seed from (BaseSeed, point,
// replica) injectively — so that tuple, extended with the requested
// quantity list (derived fields depend on what was sampled), is the
// store key. Two sweeps that share a point at the same index therefore
// share artifacts; the same physics at a different index is a different
// seed and a different key, never a false hit.

// storeFingerprint extends the trajectory fingerprint with the resolved
// quantity list: the part of an artifact's identity that the checkpoint
// fingerprint deliberately ignores.
func (sp *Spec) storeFingerprint(point int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(sp.Points[point].Fp)
	for _, q := range sp.quantities() {
		word(uint64(len(q)))
		h.Write([]byte(q))
	}
	return h.Sum64()
}

// OutputKey is the store key of one replica's output artifact.
func (sp *Spec) OutputKey(point, replica int) store.Key {
	return store.Key{Kind: "out", Fp: sp.storeFingerprint(point), Seed: sp.BaseSeed,
		Point: point, Replica: replica}
}

// AggregateKey is the store key of one point's aggregate artifact; the
// replica slot carries the replica count (an aggregate over fewer
// replicas is a different result).
func (sp *Spec) AggregateKey(point int) store.Key {
	return store.Key{Kind: "agg", Fp: sp.storeFingerprint(point), Seed: sp.BaseSeed,
		Point: point, Replica: sp.Replicas}
}

// memoReplica consults the store for a finished replica. A verified hit
// returns the decoded result; structurally-invalid content that slipped
// past the hash check is rejected (quarantined) and reads as a miss, so
// the caller recomputes.
func memoReplica(st *store.Store, key string) (*ReplicaResult, bool) {
	data, _, ok := st.Get(key)
	if !ok {
		return nil, false
	}
	o, err := store.DecodeOutput(data)
	if err != nil {
		st.Reject(key)
		return nil, false
	}
	return (*ReplicaResult)(o), true
}

// publishReplica stores a freshly computed replica output. Best-effort:
// a publish failure costs future recomputation, never the current run.
func publishReplica(st *store.Store, key string, res *ReplicaResult) {
	st.Put(key, store.EncodeOutput((*store.Output)(res)))
}

// memoAggregate consults the store for a point's aggregate. The artifact
// does not carry the point name (two sweeps may name the same physics
// differently); the caller's point name is stamped on the way out.
func memoAggregate(st *store.Store, key store.Key, point string, quantities []string) (*Aggregate, bool) {
	data, _, ok := st.Get(key.ID())
	if !ok {
		return nil, false
	}
	agg, err := decodeAggregate(data, quantities)
	if err != nil {
		st.Reject(key.ID())
		return nil, false
	}
	agg.Scenario = point
	return agg, true
}

// publishAggregate stores a point's freshly merged aggregate.
func publishAggregate(st *store.Store, key store.Key, agg *Aggregate, quantities []string) {
	st.Put(key.ID(), encodeAggregate(agg, quantities))
}

// The binary aggregate codec ("agg" artifacts). JSON is ruled out for
// the same reason as replica outputs — bit-identity is the contract and
// per-cell variance of a NaN-bearing field would not survive a float
// round-trip — so aggregates rest as raw IEEE-754 bits with the same
// FNV-1a trailer discipline:
//
//	magic "DSMCAGG1"
//	u64 replica count
//	u32 field count, then per field (quantity-list order):
//	  u32 name length, name bytes, u32 cells,
//	  cells × u64 mean bits, cells × u64 variance bits, cells × u64 ci95 bits
//	3 × scalar stats (shock angle, collisions, nflow):
//	  u64 mean bits, u64 variance bits, u64 ci95 bits, u64 n, u64 dropped
//	u64 FNV-1a of everything before the trailer
//
// Field order follows the spec's resolved quantity list rather than a
// map sort: the list is deterministic per spec, this package is in the
// determinism lint scope (no map ranging), and encode/decode sharing
// the list keeps the frame canonical.
const aggregateMagic = "DSMCAGG1"

func encodeAggregate(agg *Aggregate, quantities []string) []byte {
	size := len(aggregateMagic) + 8 + 4
	for _, q := range quantities {
		size += 4 + len(q) + 4 + 3*8*len(agg.Fields[q].Mean)
	}
	size += 3*5*8 + 8
	buf := make([]byte, 0, size)
	buf = append(buf, aggregateMagic...)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	cols := func(vs []float64) {
		for _, v := range vs {
			f64(v)
		}
	}
	u64(uint64(agg.Replicas))
	u32(uint32(len(quantities)))
	for _, q := range quantities {
		fs := agg.Fields[q]
		u32(uint32(len(q)))
		buf = append(buf, q...)
		u32(uint32(len(fs.Mean)))
		cols(fs.Mean)
		cols(fs.Variance)
		cols(fs.CI95)
	}
	for _, sc := range []ScalarStats{agg.ShockAngleDeg, agg.Collisions, agg.NFlow} {
		f64(sc.Mean)
		f64(sc.Variance)
		f64(sc.CI95)
		u64(uint64(sc.N))
		u64(uint64(sc.Dropped))
	}
	h := fnv.New64a()
	h.Write(buf)
	u64(h.Sum64())
	return buf
}

// decodeAggregate parses an aggregate artifact, verifying the checksum
// first and then that the field set matches the expected quantity list
// exactly — a mismatch means the key derivation and the artifact
// disagree, which must read as corruption, not as a partial hit.
func decodeAggregate(data []byte, quantities []string) (*Aggregate, error) {
	if len(data) < len(aggregateMagic)+8+4+8 || string(data[:len(aggregateMagic)]) != aggregateMagic {
		return nil, fmt.Errorf("run: malformed aggregate artifact (bad magic or truncated)")
	}
	h := fnv.New64a()
	h.Write(data[:len(data)-8])
	if h.Sum64() != binary.LittleEndian.Uint64(data[len(data)-8:]) {
		return nil, fmt.Errorf("run: aggregate artifact checksum mismatch")
	}
	p := data[len(aggregateMagic) : len(data)-8]
	fail := fmt.Errorf("run: malformed aggregate artifact (truncated)")
	u32 := func() (uint32, error) {
		if len(p) < 4 {
			return 0, fail
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, fail
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, nil
	}
	cols := func(n int) ([]float64, error) {
		if len(p) < 8*n {
			return nil, fail
		}
		out := make([]float64, n)
		for c := range out {
			out[c] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*c:]))
		}
		p = p[8*n:]
		return out, nil
	}
	replicas, err := u64()
	if err != nil {
		return nil, err
	}
	nf, err := u32()
	if err != nil {
		return nil, err
	}
	if int(nf) != len(quantities) {
		return nil, fmt.Errorf("run: aggregate artifact has %d fields, expected %d", nf, len(quantities))
	}
	agg := &Aggregate{Replicas: int(replicas), Fields: make(map[string]FieldStats, nf)}
	for _, q := range quantities {
		nl, err := u32()
		if err != nil || len(p) < int(nl) || string(p[:nl]) != q {
			return nil, fmt.Errorf("run: aggregate artifact field order does not match quantity list")
		}
		p = p[nl:]
		cells, err := u32()
		if err != nil {
			return nil, err
		}
		var fs FieldStats
		if fs.Mean, err = cols(int(cells)); err != nil {
			return nil, err
		}
		if fs.Variance, err = cols(int(cells)); err != nil {
			return nil, err
		}
		if fs.CI95, err = cols(int(cells)); err != nil {
			return nil, err
		}
		agg.Fields[q] = fs
	}
	scalar := func() (ScalarStats, error) {
		var sc ScalarStats
		mean, err := u64()
		if err != nil {
			return sc, err
		}
		variance, err := u64()
		if err != nil {
			return sc, err
		}
		ci, err := u64()
		if err != nil {
			return sc, err
		}
		n, err := u64()
		if err != nil {
			return sc, err
		}
		dropped, err := u64()
		if err != nil {
			return sc, err
		}
		sc.Mean = math.Float64frombits(mean)
		sc.Variance = math.Float64frombits(variance)
		sc.CI95 = math.Float64frombits(ci)
		sc.N = int(n)
		sc.Dropped = int(dropped)
		return sc, nil
	}
	if agg.ShockAngleDeg, err = scalar(); err != nil {
		return nil, err
	}
	if agg.Collisions, err = scalar(); err != nil {
		return nil, err
	}
	if agg.NFlow, err = scalar(); err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("run: malformed aggregate artifact (trailing bytes)")
	}
	return agg, nil
}
