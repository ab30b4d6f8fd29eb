package reformulate

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"qporder/internal/containment"
	"qporder/internal/core"
	"qporder/internal/lav"
	"qporder/internal/planspace"
	"qporder/internal/schema"
)

// PlanDomain bridges reformulation and plan ordering. A source can appear
// in one bucket through several unifiers, so the planspace unit is the
// bucket *entry*, not the source: PlanDomain derives an entry catalog with
// one derived source per entry, copying the underlying source's
// statistics, and exposes the plan space over entry IDs.
//
// A PlanDomain is safe for concurrent use once built: the soundness test
// runs on a compiled form of the user query and on per-entry expansions
// memoized on first use (see IsSoundPlanned), so sessions that share one
// domain share the memo.
type PlanDomain struct {
	// Buckets is the reformulation result this domain was built from.
	Buckets *Buckets
	// Source is the original catalog (needed to expand plans).
	Source *lav.Catalog
	// Entries is the derived entry catalog the ordering algorithms see.
	Entries *lav.Catalog
	// Space is the plan space over entry IDs.
	Space *planspace.Space

	// entryOf[id] is the bucket entry behind derived entry id; derived
	// IDs are dense from 0, in bucket order.
	entryOf []Entry
	// query is the user query compiled as the containing side of the
	// soundness test.
	query *containment.Compiled
	// expansions[id] memoizes entry id's expansion at its subgoal's
	// position, published once by compare-and-swap.
	expansions []atomic.Pointer[expansion]
	// bodies recycles the buffers a soundness test gathers a plan's
	// expansion into (*[]schema.Atom).
	bodies sync.Pool
}

// expansion is one entry's memoized expansion, or the error expanding
// its atom gave.
type expansion struct {
	body []schema.Atom
	err  error
}

// NewPlanDomain derives the ordering-facing view of a bucket set.
func NewPlanDomain(b *Buckets, cat *lav.Catalog) *PlanDomain {
	pd := &PlanDomain{
		Buckets: b,
		Source:  cat,
		Entries: lav.NewCatalog(),
		query:   containment.Compile(b.Query),
	}
	pd.bodies.New = func() any { return new([]schema.Atom) }
	buckets := make([][]lav.SourceID, len(b.Entries))
	for gi, es := range b.Entries {
		buckets[gi] = make([]lav.SourceID, len(es))
		for ei, e := range es {
			name := e.Source.Name + "@g" + strconv.Itoa(gi) + "#" + strconv.Itoa(ei)
			buckets[gi][ei] = pd.Entries.MustAdd(name, nil, e.Source.Stats).ID
			pd.entryOf = append(pd.entryOf, e)
		}
	}
	pd.Space = planspace.NewSpace(buckets)
	pd.expansions = make([]atomic.Pointer[expansion], pd.Entries.Len())
	return pd
}

// Entry returns the bucket entry behind a derived entry ID.
func (pd *PlanDomain) Entry(id lav.SourceID) Entry { return pd.entryOf[id] }

// Underlying returns the original source behind a derived entry ID.
func (pd *PlanDomain) Underlying(id lav.SourceID) *lav.Source {
	return pd.entryOf[id].Source
}

// EntriesWithStats derives a parallel entry catalog whose statistics come
// from statsOf applied to each entry's underlying source; entry names and
// IDs are identical to Entries, so plans, coverage models, and caches
// keyed by entry ID remain valid. Used by adaptive re-ordering to feed
// revised statistics into a fresh utility measure.
func (pd *PlanDomain) EntriesWithStats(statsOf func(orig *lav.Source) lav.Stats) *lav.Catalog {
	out := lav.NewCatalog()
	for _, e := range pd.Entries.Sources() {
		orig := pd.entryOf[e.ID].Source
		out.MustAdd(e.Name, nil, statsOf(orig))
	}
	return out
}

// FormatPlan renders a concrete plan with the underlying source names,
// e.g. "V1 V5".
func (pd *PlanDomain) FormatPlan(p *planspace.Plan) string {
	out := ""
	for i, id := range p.Sources() {
		if i > 0 {
			out += " "
		}
		out += pd.entryOf[id].Source.Name
	}
	return out
}

// PlanQuery renders a concrete ordering plan as its conjunctive plan
// query over the sources.
func (pd *PlanDomain) PlanQuery(p *planspace.Plan) (*schema.Query, error) {
	if !p.Concrete() {
		return nil, fmt.Errorf("reformulate: PlanQuery of abstract plan %s", p.Key())
	}
	var buf [8]Entry
	choice := buf[:0]
	for _, n := range p.Nodes {
		choice = append(choice, pd.entryOf[n.Source()])
	}
	return pd.Buckets.PlanQuery(choice)
}

// IsSound runs the soundness test on a concrete ordering plan: whether
// Expand of its plan query is contained in the user query. Plans
// PlanQuery rejects (abstract, or unsafe) are unsound. It builds p's plan
// query to check it; a caller that has just built it calls IsSoundPlanned.
func (pd *PlanDomain) IsSound(p *planspace.Plan) (bool, error) {
	if _, err := pd.PlanQuery(p); err != nil {
		return false, nil
	}
	return pd.IsSoundPlanned(p)
}

// IsSoundPlanned is IsSound for a plan PlanQuery has accepted, and
// repeats none of PlanQuery's checks.
//
// The plan query is not expanded. Each entry's expansion (its
// description body at its subgoal's position, existentials freshened as
// Expand names them) is memoized on first use, the plan's expansion is
// the concatenation of its entries' memos in plan order, and the
// containment test runs on the compiled user query, so a check whose
// entries are all memoized allocates nothing.
func (pd *PlanDomain) IsSoundPlanned(p *planspace.Plan) (bool, error) {
	bp := pd.bodies.Get().(*[]schema.Atom)
	defer pd.bodies.Put(bp)
	body := (*bp)[:0]
	for _, n := range p.Nodes {
		x := pd.expansion(n.Source())
		if x.err != nil {
			return false, x.err
		}
		body = append(body, x.body...)
	}
	*bp = body
	return pd.query.Contains(pd.Buckets.Query.Head, body), nil
}

// expansion returns entry id's memoized expansion, computing it on first
// use. Racing first uses compute equal expansions and keep the first
// published one.
func (pd *PlanDomain) expansion(id lav.SourceID) *expansion {
	slot := &pd.expansions[id]
	if x := slot.Load(); x != nil {
		return x
	}
	e := pd.entryOf[id]
	body, err := expandAtom(nil, e.Atom, e.Subgoal, pd.Source)
	x := &expansion{body: body, err: err}
	if !slot.CompareAndSwap(nil, x) {
		return slot.Load()
	}
	return x
}

// SoundNext pulls plans from an orderer until a sound one appears,
// implementing the Section 2 strategy: order the full Cartesian product,
// test each emitted plan for soundness, discard unsound ones. It returns
// the plan, its plan query, its utility, and ok=false when the orderer is
// exhausted. The error reports expansion failures (malformed catalogs).
func (pd *PlanDomain) SoundNext(o core.Orderer) (*planspace.Plan, *schema.Query, float64, bool, error) {
	for {
		p, u, ok := o.Next()
		if !ok {
			return nil, nil, 0, false, nil
		}
		pq, err := pd.PlanQuery(p)
		if err != nil {
			continue // unsafe: cannot be sound
		}
		sound, err := pd.IsSoundPlanned(p)
		if err != nil {
			return nil, nil, 0, false, err
		}
		if sound {
			return p, pq, u, true, nil
		}
	}
}
