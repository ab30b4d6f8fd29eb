package main

import (
	"math/rand"
	"strings"
	"testing"

	"qporder/internal/core"
	"qporder/internal/coverage"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/planspace"
	"qporder/internal/schema"
	"qporder/internal/server"
	"qporder/internal/workload"
)

// Each output check must pass on the program's real output and fail on
// a corrupted copy of it.

func smallDomain(t *testing.T) *workload.Domain {
	t.Helper()
	return workload.Generate(workload.Config{BucketSize: 6, Universe: 512, Seed: 3})
}

// orderedOutput takes the first k coverage plans of PI over d.
func orderedOutput(d *workload.Domain, k int) orderOutput {
	o := core.NewPI([]*planspace.Space{d.Space}, coverage.NewMeasure(d.Coverage))
	plans, utils := core.Take(o, k)
	out := orderOutput{utils: utils}
	for _, p := range plans {
		out.sources = append(out.sources, p.Sources())
	}
	return out
}

func TestDefinition21CatchesSwappedPlans(t *testing.T) {
	d := smallDomain(t)
	out := orderedOutput(d, 6)
	m := coverage.NewMeasure(d.Coverage)
	if err := checkDefinition21(d.Space, m, out); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	if near(out.utils[0], out.utils[1]) {
		t.Fatalf("test domain has tied leading utilities %g; pick another seed", out.utils[0])
	}
	swapped := orderOutput{
		sources: append([][]lav.SourceID{}, out.sources...),
		utils:   append([]float64{}, out.utils...),
	}
	swapped.sources[0], swapped.sources[1] = swapped.sources[1], swapped.sources[0]
	if checkDefinition21(d.Space, m, swapped) == nil {
		t.Fatal("swapped plans with their original utilities accepted")
	}
	swapped.utils[0], swapped.utils[1] = swapped.utils[1], swapped.utils[0]
	if checkDefinition21(d.Space, m, swapped) == nil {
		t.Fatal("swapped plan pair accepted")
	}
	if sameUtilities(out.utils, swapped.utils) == nil {
		t.Fatal("utility sequences of a swapped pair compared equal")
	}
}

func TestEvalQueryJoins(t *testing.T) {
	db := execsim.DB{}
	db.Add("r", "a", "b")
	db.Add("r", "b", "c")
	db.Add("r", "c", "c")
	db.Add("s", "c", "d")
	got := evalQuery(schema.MustParseQuery("Q(X, Z) :- r(X, Y), r(Y, Z), s(Z, d)"), db)
	want := []string{"a\x00c", "b\x00c", "c\x00c"}
	if len(got) != len(want) {
		t.Fatalf("got %d answers %v, want %v", len(got), got, want)
	}
	for _, w := range want {
		if _, ok := got[w]; !ok {
			t.Fatalf("missing answer %q in %v", w, got)
		}
	}
}

// mediatedSession executes the first k plans of d's query by hand and
// returns the session output and the union of its plans' answers
// evaluated by the benchmark's own join.
func mediatedSession(t *testing.T) (mediateOutput, tupleSet, tupleSet) {
	t.Helper()
	d := smallDomain(t)
	rels := []execsim.RelationSpec{{Name: "rel0", Arity: 2}, {Name: "rel1", Arity: 2}, {Name: "rel2", Arity: 2}}
	world := execsim.GenerateWorld(execsim.WorldConfig{Relations: rels, TuplesPerRelation: 40, DomainSize: 6, Seed: 5})
	store := execsim.PopulateSources(d.Catalog, world, 0.7, 6)
	eng := execsim.NewEngine(d.Catalog, store)
	s := layeredSession{query: d.Query, catalog: d.Catalog, measure: chainMeasure, algo: "streamer", k: 3, engine: eng}
	var plans []*schema.Query
	_, answers, err := s.run(nil, func(pq *schema.Query, _ []schema.Atom) { plans = append(plans, pq) })
	if err != nil {
		t.Fatal(err)
	}
	out := mediateOutput{plans: plans, utils: []float64{-1, -2, -3}}
	for _, a := range answers.Atoms() {
		out.answers.addAtom(a)
	}
	union := tupleSet{}
	for _, pq := range plans {
		for k := range evalQuery(pq, store) {
			union[k] = struct{}{}
		}
	}
	if len(union) == 0 {
		t.Fatal("test session found no answers")
	}
	return out, union, evalQuery(d.Query, world)
}

func TestMediateChecksCatchForeignAnswer(t *testing.T) {
	out, union, qworld := mediatedSession(t)
	if err := checkMediateSession(out, union, true); err != nil {
		t.Fatalf("real output rejected: %v", err)
	}
	if err := subset(union, qworld); err != nil {
		t.Fatalf("real answers not in Q(world): %v", err)
	}
	foreign := out
	foreign.answers.add([]string{"c98", "c99"})
	if checkMediateSession(foreign, union, true) == nil {
		t.Fatal("session with a foreign answer accepted")
	}
	withForeign := tupleSet{tupleKey([]string{"c98", "c99"}): {}}
	for k := range union {
		withForeign[k] = struct{}{}
	}
	if subset(withForeign, qworld) == nil {
		t.Fatal("foreign answer accepted as part of Q(world)")
	}
	rising := out
	rising.utils = []float64{-3, -2, -1}
	if checkMediateSession(rising, union, true) == nil {
		t.Fatal("rising utilities accepted under a fully monotonic measure")
	}
}

func TestServeChecksCatchForeignAnswer(t *testing.T) {
	w := &serveWorkload{seed: 1, d: smallDomain(t)}
	for _, src := range serveHot {
		w.hot = append(w.hot, schema.MustParseQuery(src))
	}
	w.world = serveWorld(w.d, 9)
	w.tail = tailQueries(rand.New(rand.NewSource(2)))
	tailSession := len(serveHot) // the first tail slot
	sq, err := w.queryAt(tailSession)
	if err != nil {
		t.Fatal(err)
	}
	var real []string
	for k := range evalQuery(sq.query, w.world) {
		real = append(real, "P("+strings.ReplaceAll(k, "\x00", ", ")+")")
	}
	w.out = make([]serveOutput, tailSession+1)
	w.out[tailSession].tail = real
	if err := w.check(); err != nil {
		t.Fatalf("real answers rejected: %v", err)
	}
	w.out[tailSession].tail = append(real, "P(c97, c98, c99)")
	if w.check() == nil {
		t.Fatal("foreign tail answer accepted")
	}
}

func TestTailKeysAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range tailQueries(rand.New(rand.NewSource(1))) {
		k := q.CanonicalKey()
		if seen[k] {
			t.Fatalf("two tail queries share the canonical key of %s", q)
		}
		seen[k] = true
	}
	for _, src := range serveHot {
		q := schema.MustParseQuery(src)
		d := disguise(q, rand.New(rand.NewSource(4)))
		if d.String() == q.String() || d.CanonicalKey() != q.CanonicalKey() {
			t.Fatalf("disguise(%s) = %s does not rename while keeping the canonical key", q, d)
		}
	}
}

func TestStreamGrammar(t *testing.T) {
	done := &server.Event{Event: "done", Plans: 2, Stopped: "max-plans"}
	good := []string{"session", "plan", "answers", "plan", "done"}
	if err := checkStream(good, done, 2, 2); err != nil {
		t.Fatalf("good stream rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"plan", "answers", "plan", "done"},
		{"session", "answers", "plan", "plan", "done"},
		{"session", "plan", "answers", "plan"},
		{"session", "plan", "error", "plan", "done"},
	} {
		if checkStream(bad, done, 2, 2) == nil {
			t.Errorf("stream %v accepted", bad)
		}
	}
	if checkStream(good, done, 2, 3) == nil {
		t.Error("2 of 3 plans accepted without exhaustion")
	}
	exhausted := &server.Event{Event: "done", Plans: 2, Stopped: "plans-exhausted"}
	if err := checkStream(good, exhausted, 2, 3); err != nil {
		t.Errorf("exhausted stream rejected: %v", err)
	}
}
