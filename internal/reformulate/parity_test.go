package reformulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qporder/internal/lav"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// buildBucketsReference is BuildBuckets as it was before sources were
// filtered by predicate ahead of Rename: every source's view renamed
// for every subgoal, the needed variables recomputed per unifier.
func buildBucketsReference(q *schema.Query, cat *lav.Catalog) (*Buckets, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	b := &Buckets{Query: q, Entries: make([][]Entry, len(q.Body))}
	for gi, goal := range q.Body {
		for _, src := range cat.Sources() {
			if src.Def == nil {
				continue
			}
			def := src.Def.Rename(fmt.Sprintf("_v%d_%d", src.ID, gi))
			existential := def.ExistentialVars()
			for _, atom := range def.Body {
				sub, ok := schema.UnifyAtoms(atom, goal, schema.Subst{})
				if !ok {
					continue
				}
				if !headVarsPreserved(neededVars(q, goal), sub, existential) {
					continue
				}
				head := schema.Atom{Pred: src.Name, Args: def.Head}
				b.Entries[gi] = append(b.Entries[gi], Entry{
					Source:  src,
					Subgoal: gi,
					Atom:    sub.ApplyAtom(head),
				})
			}
		}
	}
	for gi := range b.Entries {
		if len(b.Entries[gi]) == 0 {
			return nil, fmt.Errorf("reformulate: no source can answer subgoal %d (%s)",
				gi, q.Body[gi])
		}
	}
	return b, nil
}

// buildMCDsReference is BuildMCDs as it was before sources were
// filtered by predicate ahead of Rename.
func buildMCDsReference(q *schema.Query, cat *lav.Catalog) (*GeneralizedBuckets, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	gb := &GeneralizedBuckets{Query: q, ByCover: make(map[string][]MCD)}
	seen := make(map[string]bool)
	for _, src := range cat.Sources() {
		if src.Def == nil {
			continue
		}
		for gi := range q.Body {
			def := src.Def.Rename(fmt.Sprintf("_m%d_%d", src.ID, gi))
			for _, atom := range def.Body {
				sub, ok := schema.UnifyAtoms(atom, q.Body[gi], schema.Subst{})
				if !ok {
					continue
				}
				closeMCD(q, src, def, map[int]bool{gi: true}, sub, func(covered []int, final schema.Subst) {
					if covered[0] != gi {
						return
					}
					head := final.ApplyAtom(schema.Atom{Pred: src.Name, Args: def.Head})
					sig := src.Name + "/" + coveredKey(covered) + "/" + head.String()
					if seen[sig] {
						return
					}
					seen[sig] = true
					key := coveredKey(covered)
					gb.ByCover[key] = append(gb.ByCover[key], MCD{Source: src, Covered: covered, Atom: head})
				})
			}
		}
	}
	return gb, nil
}

// parityDomain is one (query, catalog) pair the parity tests compare
// the production builders and their references on.
type parityDomain struct {
	name string
	q    *schema.Query
	cat  *lav.Catalog
}

// parityDomains returns workload.Generate domains of several seeds and
// shapes, whose views are single-atom, and random multi-atom LAV
// domains with projections, whose views have existential variables.
func parityDomains() []parityDomain {
	var out []parityDomain
	for seed := int64(1); seed <= 6; seed++ {
		d := workload.Generate(workload.Config{QueryLen: 2 + int(seed)%3, BucketSize: 4 + int(seed), Seed: seed})
		out = append(out, parityDomain{fmt.Sprintf("generate/seed=%d", seed), d.Query, d.Catalog})
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := randomLAVCatalog(rng)
		out = append(out, parityDomain{fmt.Sprintf("random/seed=%d", seed), randomQuery(rng), cat})
	}
	return out
}

// TestBuildBucketsMatchesReference checks that skipping sources with no
// body atom over a subgoal's predicate leaves every bucket as it was:
// the same entries in the same order, renamed variables included.
func TestBuildBucketsMatchesReference(t *testing.T) {
	for _, d := range parityDomains() {
		got, errGot := BuildBuckets(d.q, d.cat)
		want, errWant := buildBucketsReference(d.q, d.cat)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: error %v, reference error %v", d.name, errGot, errWant)
		}
		if errGot != nil {
			if errGot.Error() != errWant.Error() {
				t.Fatalf("%s: error %q, reference %q", d.name, errGot, errWant)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: buckets differ from the reference:\n got %v\nwant %v", d.name, got.Entries, want.Entries)
		}
	}
}

// TestBuildMCDsMatchesReference is the same parity for MiniCon: every
// generalized bucket holds the same MCDs, variable names included.
func TestBuildMCDsMatchesReference(t *testing.T) {
	for _, d := range parityDomains() {
		got, errGot := BuildMCDs(d.q, d.cat)
		want, errWant := buildMCDsReference(d.q, d.cat)
		if errGot != nil || errWant != nil {
			t.Fatalf("%s: error %v, reference error %v", d.name, errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MCDs differ from the reference:\n got %v\nwant %v", d.name, got.ByCover, want.ByCover)
		}
	}
}
