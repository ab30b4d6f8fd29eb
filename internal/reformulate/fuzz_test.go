package reformulate

import (
	"fmt"
	"reflect"
	"testing"

	"qporder/internal/lav"
	"qporder/internal/schema"
)

// fuzzReader turns fuzz input into small choices; an exhausted input
// reads as zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) next(n int) int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b) % n
}

// fuzzVars is the variable pool shared by the query and the views. Some
// names collide with the bucket renaming of source 0 at subgoal 0 and
// of source 1 at subgoal 1 ("_v<id>_<subgoal>"), others with Expand's
// renaming at positions 0 and 1 ("_e<position>").
var fuzzVars = []string{"X", "Y", "Z", "W", "X_v0_0", "Y_v1_1", "Z_e0", "X_e1"}

// fuzzRelations fixes each relation's arity.
var fuzzRelations = []struct {
	name  string
	arity int
}{{"r", 2}, {"s", 1}, {"t", 3}}

// term reads a variable of the pool or, one time in four, a constant.
func (r *fuzzReader) term() schema.Term {
	if r.next(4) == 0 {
		return schema.Const([]string{"a", "b"}[r.next(2)])
	}
	return schema.Var(fuzzVars[r.next(len(fuzzVars))])
}

// query reads a safe conjunctive query: 1..maxBody atoms whose
// arguments may repeat variables or be constants, and a head of 1..3
// body variables (possibly repeated) and constants.
func (r *fuzzReader) query(name string, maxBody int) *schema.Query {
	q := &schema.Query{Name: name}
	for i := 1 + r.next(maxBody); i > 0; i-- {
		rel := fuzzRelations[r.next(len(fuzzRelations))]
		args := make([]schema.Term, rel.arity)
		for j := range args {
			args[j] = r.term()
		}
		q.Body = append(q.Body, schema.Atom{Pred: rel.name, Args: args})
	}
	vars := q.Vars()
	for i := 1 + r.next(3); i > 0; i-- {
		if t := r.term(); t.Const || len(vars) == 0 {
			q.Head = append(q.Head, schema.Const("a"))
		} else {
			q.Head = append(q.Head, vars[r.next(len(vars))])
		}
	}
	return q
}

// fuzzDomain reads a LAV catalog of 1..4 described sources and a query
// over the same relations and variable names.
func fuzzDomain(data []byte) (*schema.Query, *lav.Catalog) {
	r := &fuzzReader{data: data}
	cat := lav.NewCatalog()
	for i := 1 + r.next(4); i > 0; i-- {
		def := r.query(fmt.Sprintf("V%d", cat.Len()), 3)
		cat.MustAdd(def.Name, def, lav.Stats{Tuples: 1})
	}
	return r.query("Q", 3), cat
}

// FuzzSoundness checks reformulation's rename-free paths against their
// renaming references on generated domains: BuildBuckets entry by entry
// and byte for byte, and on every plan of the bucket and inverse-rule
// spaces, PlanDomain.IsSound, its memoized expansion and
// containment.Contains (see checkSoundness).
func FuzzSoundness(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x04\x05\x01\x02\x06\x07\x00\x01\x00\x02\x01\x03\x05\x00\x01"))
	f.Add([]byte("\x03\x02\x00\x01\x01\x03\x04\x01\x00\x02\x02\x01\x05\x06\x07\x01\x01\x00\x02\x03\x04\x05\x06\x07\x00\x01\x02\x03"))
	f.Add([]byte("r(X, Y) :- t(Z, a, X), s(Y_v1_1) ; Q(X_v0_0) :- r(Z_e0, X_e1)"))
	// Q(a) :- r(a, X_v0_0): the query variable is source 0's X renamed
	// for subgoal 0, so unification must treat the two as one term.
	f.Add([]byte("000100110010000001$"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, cat := fuzzDomain(data)
		got, errGot := BuildBuckets(q, cat)
		want, errWant := buildBucketsReference(q, cat)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("q=%s: error %v, reference error %v", q, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%s: buckets differ from the reference:\n got %v\nwant %v", q, got.Entries, want.Entries)
		}
		if pd := NewPlanDomain(got, cat); pd.Space.Size() <= 512 {
			checkSoundness(t, "q="+q.String(), pd)
		}
		if ib, err := InverseBuckets(q, cat); err == nil {
			if pd := NewPlanDomain(ib, cat); pd.Space.Size() <= 512 {
				checkSoundness(t, "inverse q="+q.String(), pd)
			}
		}
	})
}
