package main

import (
	"path/filepath"
	"testing"
)

// TestCompareReadsCommittedRecords: -baseline must keep reading every
// committed BENCH_PR*.json record, including the ones that carry the
// tile/regions keys of the removed sort knobs.
func TestCompareReadsCommittedRecords(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed bench records found (%v)", err)
	}
	for _, p := range paths {
		rec := Record{Cases: []Case{{Name: "fig4-rarefied", UsPerParticleStep: 0.1}}}
		if err := rec.compare(p); err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if rec.Cases[0].BaselineUsPerParticleStep <= 0 {
			t.Errorf("%s: fig4-rarefied baseline not filled", p)
		}
	}
}
