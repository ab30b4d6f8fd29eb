package schema

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzParseQuery checks the parser never panics and that anything it
// accepts round-trips through String() to an equivalent parse. The seed
// corpus runs as part of the normal test suite; `go test -fuzz
// FuzzParseQuery ./internal/schema` explores further.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"Q(M, R) :- play-in(ford, M), review-of(R, M)",
		"V1(A, M) :- play-in(A, M), american(M).",
		`Q(X) :- r(X, "two words"), s(X)`,
		"Q(X) :- r(X",
		"Q() :- r()",
		"Q(X) :- ",
		":- r(X)",
		"Q(X):-r(X)",
		"q(x) :- r(x)",
		`Q(X) :- r("\"")`,
		`Q(X) :- r(X, "x\\")`,
		`Q(X) :- r(X, "a\\b")`,
		"Q(X) :- r(X), r(X), r(X)",
		"Q(日本) :- r(日本)",
		strings.Repeat("Q(X) :- r(X)", 3),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		// Accepted input must render and re-parse to the same form.
		s1 := q.String()
		q2, err := ParseQuery(s1)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", s1, src, err)
		}
		if s2 := q2.String(); s1 != s2 {
			t.Fatalf("round trip unstable: %q -> %q", s1, s2)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("ParseQuery accepted invalid query %q: %v", s1, err)
		}
	})
}

// fuzzAtoms decodes a fuzz input into atoms: one per line, fields split
// by '|', the first field the predicate and each further one an
// argument, a variable when it starts with '?' and a constant
// otherwise.
func fuzzAtoms(src string) []Atom {
	var out []Atom
	for _, line := range strings.Split(src, "\n") {
		fields := strings.Split(line, "|")
		a := Atom{Pred: fields[0]}
		for _, f := range fields[1:] {
			if name, ok := strings.CutPrefix(f, "?"); ok {
				a.Args = append(a.Args, Var(name))
			} else {
				a.Args = append(a.Args, Const(f))
			}
		}
		out = append(out, a)
	}
	return out
}

// FuzzAtomOrder checks the single rendering path: AppendTo appends
// exactly String's bytes, and AtomSorter orders atoms exactly as a
// stable sort by String does, on a fresh sorter and on a reused one.
func FuzzAtomOrder(f *testing.F) {
	for _, seed := range []string{
		"r|a\nr|a!\nr|a-\nr|a",                     // prefix constants
		"r|c12\nr|c1\nr|c1|c2\nr|c12|c1",           // numeric prefixes, two arities
		"r|?X\nr|X\nr|x\nr|?x",                     // variable and constant of one name
		"r|two words\nr|Upper\nr|\"q\"\nr|",        // quoted constants
		"r|x\\\nr|a\\b\nr|x\nr|a\"b\\",             // backslashes
		"s|a|b\nr|a|b\nr-x|a\nr|a|b|c\nr\nQ|?M|?R", // predicates and arities
		"p|日本\np|é\np|e",
	} {
		f.Add(seed)
	}
	var reused AtomSorter
	f.Fuzz(func(t *testing.T, src string) {
		atoms := fuzzAtoms(src)
		for _, a := range atoms {
			want := a.String()
			if got := string(a.AppendTo(nil)); got != want {
				t.Fatalf("AppendTo renders %q, String %q", got, want)
			}
			if got := string(a.AppendTo([]byte("prefix"))); got != "prefix"+want {
				t.Fatalf("AppendTo after a prefix gives %q, want %q", got, "prefix"+want)
			}
		}
		input := slices.Clone(atoms)
		want := slices.Clone(atoms)
		sort.SliceStable(want, func(i, j int) bool { return want[i].String() < want[j].String() })
		var fresh AtomSorter
		for name, got := range map[string][]Atom{
			"fresh":  fresh.AppendSorted(nil, atoms),
			"reused": reused.AppendSorted(nil, atoms),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s sorter returned %d atoms, want %d", name, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s sorter: position %d holds %v (%#v), stable sort by String holds %v (%#v)",
						name, i, got[i], got[i], want[i], want[i])
				}
			}
		}
		for i := range atoms {
			if !atoms[i].Equal(input[i]) {
				t.Fatalf("AppendSorted reordered its input at %d", i)
			}
		}
	})
}
