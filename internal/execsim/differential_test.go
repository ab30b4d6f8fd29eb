package execsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qporder/internal/physopt"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// accessRecord is one OnAccess call.
type accessRecord struct {
	source         string
	tuples, failed int
}

// diffPlans returns logical plans over a generated workload domain: every
// plan of its plan space, plus variants that bind a constant after a
// variable, repeat a variable inside an atom, and put a constant in the
// head, so every operand kind of the compiled step list is exercised.
func diffPlans(t *testing.T, d *workload.Domain, rng *rand.Rand) []*schema.Query {
	t.Helper()
	b, err := reformulate.BuildBuckets(d.Query, d.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	pd := reformulate.NewPlanDomain(b, d.Catalog)
	var out []*schema.Query
	for _, p := range pd.Space.Enumerate() {
		pq, err := pd.PlanQuery(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pq)
		c := schema.Const(fmt.Sprintf("c%d", rng.Intn(5)))
		i := rng.Intn(len(pq.Body))
		bound := pq.Clone()
		bound.Body[i].Args[1] = c
		out = append(out, bound)
		repeated := pq.Clone()
		repeated.Body[i].Args[1] = repeated.Body[i].Args[0]
		out = append(out, repeated)
		headConst := pq.Clone()
		headConst.Head = append(headConst.Head, c)
		out = append(out, headConst)
	}
	return out
}

// physicalOf returns a physical plan for pq: the optimizer's choice, or
// a random step order with random access methods.
func physicalOf(t *testing.T, pq *schema.Query, d *workload.Domain, rng *rand.Rand) *physopt.Plan {
	t.Helper()
	if rng.Intn(2) == 0 {
		pp, err := physopt.Optimize(pq, d.Catalog, physopt.Params{N: 50})
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	pp := &physopt.Plan{Name: pq.Name, Head: pq.Head}
	for _, i := range rng.Perm(len(pq.Body)) {
		pp.Steps = append(pp.Steps, physopt.Step{Atom: pq.Body[i], Method: physopt.Method(rng.Intn(2))})
	}
	return pp
}

// TestExecutorMatchesReference runs the step-list executor and the
// substitution-map reference side by side over generated workload
// domains, logical and physical plans, with caching and simulated
// failures on and off. Answers, the OnAccess sequence and every counter
// must be identical.
func TestExecutorMatchesReference(t *testing.T) {
	failedSeen, hitsSeen := false, false
	for seed := int64(1); seed <= 4; seed++ {
		d := workload.Generate(workload.Config{QueryLen: 3, BucketSize: 3, Seed: seed})
		rels := make([]RelationSpec, len(d.Query.Body))
		for j, a := range d.Query.Body {
			rels[j] = RelationSpec{Name: a.Pred, Arity: a.Arity()}
		}
		world := GenerateWorld(WorldConfig{Relations: rels, TuplesPerRelation: 24, DomainSize: 5, Seed: seed})
		store := PopulateSources(d.Catalog, world, 0.7, seed+100)
		for _, faulty := range []bool{false, true} {
			eng, ref := NewEngine(d.Catalog, store), newRefEngine(d.Catalog, store)
			var got, want []accessRecord
			eng.OnAccess = func(s string, n, f int) { got = append(got, accessRecord{s, n, f}) }
			ref.OnAccess = func(s string, n, f int) { want = append(want, accessRecord{s, n, f}) }
			if faulty {
				eng.Caching, ref.Caching = true, true
				eng.EnableFailures(seed)
				ref.EnableFailures(seed)
			}
			rng := rand.New(rand.NewSource(seed))
			for _, pq := range diffPlans(t, d, rng) {
				a, errA := eng.ExecutePlan(pq)
				b, errB := ref.ExecutePlan(pq)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d plan %s: logical answers differ:\n got %v (%v)\nwant %v (%v)", seed, pq, a, errA, b, errB)
				}
				pp := physicalOf(t, pq, d, rng)
				a, errA = eng.ExecutePhysical(pp)
				b, errB = ref.ExecutePhysical(pp)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d plan\n%s: physical answers differ:\n got %v (%v)\nwant %v (%v)", seed, pp, a, errA, b, errB)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d faulty=%v: OnAccess sequences differ (%d vs %d calls)", seed, faulty, len(got), len(want))
			}
			if eng.Cost != ref.Cost || eng.Accesses != ref.Accesses || eng.CacheHits != ref.CacheHits || eng.FailedAttempts != ref.FailedAttempts {
				t.Fatalf("seed %d faulty=%v: accounting differs: cost %g/%g accesses %d/%d hits %d/%d failed %d/%d", seed, faulty,
					eng.Cost, ref.Cost, eng.Accesses, ref.Accesses, eng.CacheHits, ref.CacheHits, eng.FailedAttempts, ref.FailedAttempts)
			}
			failedSeen = failedSeen || eng.FailedAttempts > 0
			hitsSeen = hitsSeen || eng.CacheHits > 0
		}
	}
	if !failedSeen || !hitsSeen {
		t.Fatalf("differential runs never exercised failures (%v) or cache hits (%v)", failedSeen, hitsSeen)
	}
}

// TestMatchAtomMatchesReference checks schema.MatchAtom against the
// clone-first reference on random patterns, substitutions and tuples.
func TestMatchAtomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	terms := []schema.Term{schema.Var("X"), schema.Var("Y"), schema.Var("Z"), schema.Const("a"), schema.Const("b")}
	for n := 0; n < 5000; n++ {
		pattern := schema.Atom{Pred: "p", Args: make([]schema.Term, 1+rng.Intn(3))}
		ground := schema.Atom{Pred: "p", Args: make([]schema.Term, len(pattern.Args))}
		for i := range pattern.Args {
			pattern.Args[i] = terms[rng.Intn(len(terms))]
			ground.Args[i] = terms[3+rng.Intn(2)]
		}
		// Variables bind only to later terms, so chains such as
		// {X→Y, Y→a} occur but cycles do not.
		s := schema.Subst{}
		for i, v := range terms[:3] {
			if rng.Intn(2) == 0 {
				s[v] = terms[i+1+rng.Intn(len(terms)-i-1)]
			}
		}
		got, okG := schema.MatchAtom(pattern, ground, s)
		want, okW := refMatchAtom(pattern, ground, s)
		if okG != okW || (okG && !reflect.DeepEqual(got, want)) {
			t.Fatalf("MatchAtom(%s, %s, %s) = %s, %v; reference %s, %v", pattern, ground, s, got, okG, want, okW)
		}
	}
}
