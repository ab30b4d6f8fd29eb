package reformulate

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qporder/internal/containment"
	"qporder/internal/lav"
	"qporder/internal/schema"
)

// TestEntryNamesPinned pins the derived entry catalog's names,
// "<source>@g<subgoal>#<entry>", which streams and traces print.
func TestEntryNamesPinned(t *testing.T) {
	b, err := BuildBuckets(movieQuery(), movieCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	pd := NewPlanDomain(b, movieCatalog(t))
	want := []string{"V1@g0#0", "V2@g0#1", "V3@g0#2", "V4@g1#0", "V5@g1#1", "V6@g1#2"}
	var got []string
	for _, s := range pd.Entries.Sources() {
		got = append(got, s.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entry names = %v, want %v", got, want)
	}
}

// TestExpandNamesExistentialsPerPosition pins Expand's naming: the
// description's variables take the suffix "_e<position>", so the same
// source at two positions contributes two distinct existentials.
func TestExpandNamesExistentialsPerPosition(t *testing.T) {
	cat := lav.NewCatalog()
	cat.MustAdd("V", schema.MustParseQuery("V(A) :- r(A, Z), s(Z, c)"), lav.Stats{Tuples: 1})
	plan := schema.MustParseQuery("P(X, Y) :- V(X), V(Y)")
	exp, err := Expand(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	const want = "P(X, Y) :- r(X, Z_e0), s(Z_e0, c), r(Y, Z_e1), s(Z_e1, c)"
	if got := exp.String(); got != want {
		t.Fatalf("Expand = %s, want %s", got, want)
	}
}

// TestBuildBucketsOneStepHeadImage pins the entry atom as the one-step
// image of the renamed source head: unifying r(Y, Y) with r(X, c) binds
// Y to X and X to c, and the entry keeps V(X), not the resolved V(c).
func TestBuildBucketsOneStepHeadImage(t *testing.T) {
	cat := lav.NewCatalog()
	cat.MustAdd("V", schema.MustParseQuery("V(Y) :- r(Y, Y)"), lav.Stats{Tuples: 1})
	b, err := BuildBuckets(schema.MustParseQuery("Q(X) :- r(X, c)"), cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Entries[0][0].Atom.String(); got != "V(X)" {
		t.Fatalf("entry atom = %s, want V(X)", got)
	}
}

// checkSoundness compares, on every plan of pd's space, IsSound with
// the renaming reference, the memoized expansion with Expand, and
// containment.Contains with its renaming reference.
func checkSoundness(t *testing.T, name string, pd *PlanDomain) {
	t.Helper()
	q := pd.Buckets.Query
	for _, p := range pd.Space.Enumerate() {
		got, err := pd.IsSound(p)
		want, wantErr := isSoundReference(pd, p)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: IsSound(%s) = %v, %v; reference %v, %v", name, p.Format(pd.Entries), got, err, want, wantErr)
		}
		pq, err := pd.PlanQuery(p)
		if err != nil {
			continue
		}
		exp, err := Expand(pq, pd.Source)
		if err != nil {
			continue
		}
		var memo []schema.Atom
		for _, n := range p.Nodes {
			memo = append(memo, pd.expansion(n.Source()).body...)
		}
		if !reflect.DeepEqual(memo, exp.Body) {
			t.Fatalf("%s: memoized expansion of %s is %v, Expand gives %v", name, p.Format(pd.Entries), memo, exp.Body)
		}
		for _, pair := range [][2]*schema.Query{{exp, q}, {q, exp}} {
			if got, want := containment.Contains(pair[0], pair[1]), containsReference(pair[0], pair[1]); got != want {
				t.Fatalf("%s: Contains(%s, %s) = %v, reference %v", name, pair[0], pair[1], got, want)
			}
		}
	}
}

// TestIsSoundMatchesReference runs checkSoundness over the parity
// domains, for the bucket algorithm and for inverse rules.
func TestIsSoundMatchesReference(t *testing.T) {
	for _, d := range parityDomains() {
		if b, err := BuildBuckets(d.q, d.cat); err == nil {
			checkSoundness(t, d.name, NewPlanDomain(b, d.cat))
		}
		if b, err := InverseBuckets(d.q, d.cat); err == nil {
			checkSoundness(t, d.name+"/inverse", NewPlanDomain(b, d.cat))
		}
	}
}

// TestIsSoundWarmZeroAllocs: once a plan's entries are memoized, the
// soundness check the mediator runs after PlanQuery, IsSoundPlanned,
// allocates nothing.
func TestIsSoundWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, err := BuildBuckets(movieQuery(), movieCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	pd := NewPlanDomain(b, movieCatalog(t))
	plans := pd.Space.Enumerate()
	for _, p := range plans {
		if _, err := pd.IsSound(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		for _, p := range plans {
			if ok, _ := pd.IsSoundPlanned(p); !ok {
				t.Fatal("movie plan reported unsound")
			}
		}
	}); n != 0 {
		t.Fatalf("a warm pass over %d plans allocates %.1f times, want 0", len(plans), n)
	}
}

// TestIsSoundConcurrentSharedDomain shares one fresh PlanDomain between
// goroutines that race to fill its expansion memo, as sessions sharing
// a cached reformulation do; under -race it checks the memo's
// publication, and every verdict must match the reference.
func TestIsSoundConcurrentSharedDomain(t *testing.T) {
	for _, d := range parityDomains()[:40] {
		b, err := BuildBuckets(d.q, d.cat)
		if err != nil {
			continue
		}
		ref := NewPlanDomain(b, d.cat)
		plans := ref.Space.Enumerate()
		want := make([]bool, len(plans))
		for i, p := range plans {
			want[i], _ = isSoundReference(ref, p)
		}
		pd := NewPlanDomain(b, d.cat)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range plans {
					i := (k + g*len(plans)/4) % len(plans)
					if got, err := pd.IsSound(plans[i]); err != nil || got != want[i] {
						t.Errorf("%s: concurrent IsSound = %v, %v; want %v", d.name, got, err, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
