package core

import (
	"testing"

	"qporder/internal/coverage"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// TestSnapshotSharedAcrossOrderers runs two orderers back to back over
// the same measure; the second run must be pure cache hits for every
// node and plan the first run materialized.
func TestSnapshotSharedAcrossOrderers(t *testing.T) {
	d := workload.Generate(workload.Config{QueryLen: 3, BucketSize: 4, Universe: 512, Zones: 3, Seed: 14})
	m := coverage.NewMeasure(d.Coverage)
	total := int(d.Space.Size())
	stats := func(o Orderer) (hits, misses, kernels int) {
		return o.Context().(interface {
			SnapshotStats() (int, int, int)
		}).SnapshotStats()
	}

	first := NewPI([]*planspace.Space{d.Space}, m)
	Take(first, total)
	_, miss0, _ := stats(first)
	if miss0 == 0 {
		t.Fatal("first run recorded no snapshot misses; cache not exercised")
	}

	second := NewPI([]*planspace.Space{d.Space}, m)
	Take(second, total)
	_, miss1, _ := stats(second)
	if miss1 != 0 {
		t.Errorf("second run recorded %d snapshot misses, want 0 (shared snapshot)", miss1)
	}
}
