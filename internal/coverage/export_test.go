package coverage

// NewMeasureCapped returns the coverage measure over m with a snapshot
// that admits at most capacity sets (plus the soft bound's overshoot).
func NewMeasureCapped(m *Model, capacity int64) *Measure {
	return &Measure{model: m, snap: newSnapshot(capacity)}
}

// SnapshotSets returns the number of sets the measure's snapshot holds.
func (ms *Measure) SnapshotSets() int64 { return ms.snap.count.Load() }

// RandomModel builds the in-package tests' random model (see testModel).
var RandomModel = testModel
