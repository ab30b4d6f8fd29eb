package execsim

import (
	"slices"

	"qporder/internal/schema"
)

// operand is a compiled atom argument: the term as written and, for a
// variable the body binds, its slot (-1 otherwise).
type operand struct {
	term schema.Term
	slot int
	bind bool // the variable's first occurrence: this step binds the slot
}

// step is an atom compiled against the slots bound before it, which
// are the slots below lo.
type step struct {
	pred string
	ops  []operand
	lo   int
}

// program is a conjunctive query compiled into a step list: the one
// match-and-extend loop behind plan execution, Eval and EvalProgram.
// Each variable owns a fixed slot, written only by the first step that
// mentions it, so backtracking needs no undo: the next row at that step
// overwrites the slot before any later step reads it. Matching a row
// allocates nothing.
type program struct {
	head  step
	steps []step
	vals  []schema.Term // slot bindings
	buf   []schema.Term // scratch for goal and head instances
}

// compile assigns slots left to right over body.
func compile(head schema.Atom, body []schema.Atom) *program {
	p, slots, width := &program{}, make(map[schema.Term]int), len(head.Args)
	at := func(a schema.Atom, binds bool) step {
		st := step{pred: a.Pred, ops: make([]operand, len(a.Args)), lo: len(slots)}
		for j, t := range a.Args {
			st.ops[j] = operand{term: t, slot: -1}
			if s, ok := slots[t]; ok {
				st.ops[j].slot = s
			} else if binds && t.IsVar() {
				st.ops[j] = operand{term: t, slot: len(slots), bind: true}
				slots[t] = len(slots)
			}
		}
		width = max(width, len(a.Args))
		return st
	}
	for _, a := range body {
		p.steps = append(p.steps, at(a, true))
	}
	p.head = at(head, false)
	p.vals, p.buf = make([]schema.Term, len(slots)), make([]schema.Term, width)
	return p
}

// instance renders st under the current bindings into the scratch
// buffer, valid until the next call: slots bound before st become their
// values, every other argument stays as written.
func (p *program) instance(st *step) schema.Atom {
	args := p.buf[:len(st.ops)]
	for j, op := range st.ops {
		args[j] = op.term
		if op.slot >= 0 && op.slot < st.lo {
			args[j] = p.vals[op.slot]
		}
	}
	return schema.Atom{Pred: st.pred, Args: args}
}

// extend matches row against step i and binds the step's slots. A failed
// match may leave them written; nothing reads them before the next
// successful match at this step.
func (p *program) extend(i int, row schema.Atom) bool {
	st := &p.steps[i]
	if row.Pred != st.pred || len(row.Args) != len(st.ops) {
		return false
	}
	for j := range st.ops {
		op, v := &st.ops[j], row.Args[j]
		switch {
		case op.bind:
			p.vals[op.slot] = v
		case op.slot < 0:
			if v != op.term {
				return false
			}
		case v != p.vals[op.slot]:
			return false
		}
	}
	return true
}

// run enumerates every binding of the body depth first, in step order.
// rows supplies step i's candidate rows under the current bindings; emit
// receives each complete binding's head instance, valid during the call.
func (p *program) run(rows func(i int) []schema.Atom, emit func(head schema.Atom) error) error {
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(p.steps) {
			return emit(p.instance(&p.head))
		}
		for _, r := range rows(i) {
			if p.extend(i, r) {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(0)
}

// groundMatch reports whether tuple is an instance of goal: same
// predicate and arity, equal constants, and equal values wherever goal
// repeats a variable. It never allocates.
func groundMatch(goal, tuple schema.Atom) bool {
	if goal.Pred != tuple.Pred || len(goal.Args) != len(tuple.Args) {
		return false
	}
	for j, t := range goal.Args {
		if t.Const {
			if tuple.Args[j] != t {
				return false
			}
		} else if k := slices.Index(goal.Args[:j], t); k >= 0 && tuple.Args[k] != tuple.Args[j] {
			return false
		}
	}
	return true
}
