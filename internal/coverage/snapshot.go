package coverage

import (
	"sync"
	"sync/atomic"
)

// defaultSnapshotCap bounds the number of bitsets the shared snapshot
// retains (plan answer sets plus node intersection/union sets). At the
// default 4096-bit universe this caps snapshot memory near 16 MiB. Wide
// plan spaces (bucket size 80 enumerates 512k concrete plans) would
// otherwise make the memo cost more than it saves; evaluations past the
// cap fall back to the fused single-pass kernels, which are still
// allocation-free.
const defaultSnapshotCap = 1 << 15

// snapshot is the measure-owned, concurrency-safe memo of answer-set
// values that are pure functions of the immutable coverage model:
//
//   - plans: concrete plan key -> exact answer set (∩ of leaf sets)
//   - inter: node key -> ∩ of the group's member sets
//   - union: node key -> ∪ of the group's member sets
//
// Entries are immutable once stored, so sync.Map's LoadOrStore gives
// last-writer-loses semantics without locking: racing contexts compute
// identical sets and one copy wins. Contexts keep pointer-keyed local
// front maps in front of the snapshot — a local hit costs one map probe
// with no interface boxing, keeping the warm Evaluate path free of
// allocations — so the shared maps are consulted at most once per key
// per context.
//
// The snapshot belongs to the Measure, not a context: iDrips abstracts
// every subspace a split creates and parallel evaluators fork a context
// per worker, and both previously rebuilt identical sets per context. Observe
// never invalidates anything — only the per-context covered set changes.
type snapshot struct {
	capacity int64
	count    atomic.Int64
	plans    sync.Map // string -> *bitset.Set
	inter    sync.Map // string -> *bitset.Set
	union    sync.Map // string -> *bitset.Set
}

func newSnapshot(capacity int64) *snapshot {
	return &snapshot{capacity: capacity}
}

// roomFor reports whether the snapshot may admit another set. It is a
// soft bound: concurrent admitters can overshoot by at most one set each,
// which is fine for a memory cap.
func (s *snapshot) roomFor() bool {
	return s.count.Load() < s.capacity
}
