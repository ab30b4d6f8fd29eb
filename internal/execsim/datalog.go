package execsim

import (
	"fmt"

	"qporder/internal/schema"
)

// EvalProgram evaluates a (possibly recursive) datalog program bottom-up
// to fixpoint using semi-naive evaluation and returns every derived fact,
// grouped by predicate. Body atoms whose predicate is some rule's head
// are intensional; all others are matched against edb. The inverse-rule
// programs of Section 7 (reformulate.DatalogProgram) evaluate directly,
// and recursion — the paper's noted future-work case — is supported,
// e.g. transitive closure.
//
// EvalProgram returns an error for unsafe rules (every rule must satisfy
// Query.Validate).
func EvalProgram(rules []*schema.Query, edb DB) (DB, error) {
	idb := make(map[string]bool)
	progs := make([]*program, len(rules))
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("execsim: %w", err)
		}
		idb[r.Name] = true
		progs[i] = compile(r.HeadAtom(), r.Body)
	}

	// facts: all known atoms (EDB ∪ derived IDB), grouped by predicate,
	// with known as their dedup index.
	facts, known := make(DB), NewAnswerSet()
	add := func(a schema.Atom, into DB) {
		if !known.put(a) {
			return
		}
		a = known.atoms[len(known.atoms)-1]
		facts[a.Pred] = append(facts[a.Pred], a)
		if into != nil {
			into[a.Pred] = append(into[a.Pred], a)
		}
	}
	for _, atoms := range edb {
		for _, a := range atoms {
			add(a, nil)
		}
	}

	// fire evaluates rule ri; the atom at position deltaPos (if >= 0)
	// ranges over delta, the others over all facts. Derived heads that are
	// new go into out.
	fire := func(ri, deltaPos int, delta DB, out DB) error {
		p := progs[ri]
		return p.run(func(i int) []schema.Atom {
			if i == deltaPos {
				return delta[p.steps[i].pred]
			}
			return facts[p.steps[i].pred]
		}, func(head schema.Atom) error {
			for _, t := range head.Args {
				if t.IsVar() {
					return fmt.Errorf("execsim: non-ground derived fact %s from rule %s", head, rules[ri])
				}
			}
			add(head, out)
			return nil
		})
	}

	// First round: naive evaluation of every rule over the EDB.
	delta := make(DB)
	for ri := range rules {
		if err := fire(ri, -1, nil, delta); err != nil {
			return nil, err
		}
	}
	// Semi-naive iterations: a rule can derive something new only through
	// a body atom matching a fact from the last delta.
	for len(delta) > 0 {
		next := make(DB)
		for ri, r := range rules {
			for i, goal := range r.Body {
				if !idb[goal.Pred] || len(delta[goal.Pred]) == 0 {
					continue
				}
				if err := fire(ri, i, delta, next); err != nil {
					return nil, err
				}
			}
		}
		delta = next
	}

	out := make(DB)
	var order schema.AtomSorter
	for pred := range idb {
		out[pred] = order.AppendSorted(nil, facts[pred])
	}
	return out, nil
}

// FilterAnswers returns the atoms satisfying keep, preserving order.
func FilterAnswers(atoms []schema.Atom, keep func(schema.Atom) bool) []schema.Atom {
	var out []schema.Atom
	for _, a := range atoms {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}
