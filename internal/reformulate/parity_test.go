package reformulate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qporder/internal/lav"
	"qporder/internal/planspace"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// buildBucketsReference is BuildBuckets as it was before sources were
// filtered by predicate and before unification ran on unrenamed
// descriptions: every source's view renamed for every subgoal,
// unified through schema.Subst, the needed variables recomputed per
// unifier.
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
				if !headVarsPreservedReference(neededVarsReference(q, goal), sub, existential) {
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

// headVarsPreservedReference is the bucket algorithm's pruning
// condition over a schema.Subst, as BuildBuckets checked it before its
// binding table.
func headVarsPreservedReference(needed []schema.Term, sub schema.Subst, viewExistential []schema.Term) bool {
	for _, y := range viewExistential {
		img := sub.Resolve(y)
		if img.IsVar() && termIn(needed, img) {
			return false
		}
	}
	for _, x := range needed {
		img := sub.Resolve(x)
		if img.IsVar() && termIn(viewExistential, img) {
			return false
		}
	}
	return true
}

// neededVarsReference is neededVars as it was before it stopped
// collecting each other subgoal's variables into a slice.
func neededVarsReference(q *schema.Query, goal schema.Atom) []schema.Term {
	goalVars := goal.Vars(nil)
	var out []schema.Term
	head := q.DistinguishedVars()
	for _, v := range goalVars {
		if termIn(head, v) {
			out = append(out, v)
			continue
		}
		for _, other := range q.Body {
			if other.Equal(goal) {
				continue
			}
			if termIn(other.Vars(nil), v) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// containsReference is containment.Contains as it was before the
// compiled kernel: both queries renamed apart, the homomorphism grown by
// cloning the substitution per candidate atom.
func containsReference(q1, q2 *schema.Query) bool {
	if len(q1.Head) != len(q2.Head) {
		return false
	}
	q1, q2 = q1.Rename("_c1"), q2.Rename("_c2")
	h := schema.Subst{}
	for i, t2 := range q2.Head {
		t1 := q1.Head[i]
		if t2.Const {
			if t2 != t1 {
				return false
			}
			continue
		}
		if img, ok := h[t2]; ok {
			if img != t1 {
				return false
			}
			continue
		}
		h[t2] = t1
	}
	return mapAtomsReference(q2.Body, q1.Body, h)
}

func mapAtomsReference(src, dst []schema.Atom, h schema.Subst) bool {
	if len(src) == 0 {
		return true
	}
	for _, b := range dst {
		if ext, ok := mapAtomReference(src[0], b, h); ok && mapAtomsReference(src[1:], dst, ext) {
			return true
		}
	}
	return false
}

func mapAtomReference(a, b schema.Atom, h schema.Subst) (schema.Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	ext := h.Clone()
	for i, ta := range a.Args {
		tb := b.Args[i]
		if ta.Const {
			if ta != tb {
				return nil, false
			}
			continue
		}
		if img, ok := ext[ta]; ok {
			if img != tb {
				return nil, false
			}
			continue
		}
		ext[ta] = tb
	}
	return ext, true
}

// isSoundReference is the soundness test as PlanDomain.IsSound ran it
// before the per-entry expansion memo: build the plan query, expand it,
// and test containment by renaming.
func isSoundReference(pd *PlanDomain, p *planspace.Plan) (bool, error) {
	pq, err := pd.PlanQuery(p)
	if err != nil {
		return false, nil
	}
	exp, err := Expand(pq, pd.Source)
	if err != nil {
		return false, err
	}
	return containsReference(exp, pd.Buckets.Query), nil
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
