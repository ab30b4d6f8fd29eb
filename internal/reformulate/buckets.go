// Package reformulate translates a user query over the mediated schema
// into query plans over the sources. It implements the bucket algorithm
// [16] used throughout the paper, plan expansion and the containment-based
// soundness test, and a MiniCon-style generalized-bucket builder
// (Section 7).
package reformulate

import (
	"fmt"
	"strconv"

	"qporder/internal/containment"
	"qporder/internal/lav"
	"qporder/internal/schema"
)

// Entry is one way a source can answer one subgoal: the source plus its
// head atom instantiated by the unifier between the subgoal and a body
// atom of the source description.
type Entry struct {
	// Source is the underlying catalog source.
	Source *lav.Source
	// Subgoal is the index of the query subgoal this entry answers.
	Subgoal int
	// Atom is the instantiated source head, e.g. V1(ford, M): the atom the
	// plan will contain at this position.
	Atom schema.Atom
}

// Buckets is the result of the bucket-creation step: Buckets[i] lists the
// entries that can answer subgoal i.
type Buckets struct {
	Query   *schema.Query
	Entries [][]Entry
}

// BuildBuckets runs the bucket-creation step of the bucket algorithm: for
// each subgoal of q, collect every (source, body atom) pair whose atom
// unifies with the subgoal such that the subgoal's distinguished query
// variables map to distinguished variables of the source (otherwise the
// source cannot return the needed attribute). Sources without descriptions
// are skipped.
func BuildBuckets(q *schema.Query, cat *lav.Catalog) (*Buckets, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	b := &Buckets{Query: q, Entries: make([][]Entry, len(q.Body))}
	for gi, goal := range q.Body {
		needed := neededVars(q, goal)
		for _, src := range cat.Sources() {
			// Only a body atom over the subgoal's relation can unify
			// with it, so a source without one is passed over unrenamed.
			if src.Def == nil || !hasRelation(src.Def, goal) {
				continue
			}
			def := src.Def.Rename(renameSuffix("_v", int(src.ID), gi))
			existential := def.ExistentialVars()
			for _, atom := range def.Body {
				sub, ok := schema.UnifyAtoms(atom, goal, schema.Subst{})
				if !ok {
					continue
				}
				if !headVarsPreserved(needed, sub, existential) {
					continue
				}
				// Plan atoms reference the source by catalog name, so the
				// same description shared by several sources stays
				// unambiguous.
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

// hasRelation reports whether a body atom of def has goal's predicate
// and arity, which UnifyAtoms requires before it compares any argument.
func hasRelation(def *schema.Query, goal schema.Atom) bool {
	for _, a := range def.Body {
		if a.Pred == goal.Pred && len(a.Args) == len(goal.Args) {
			return true
		}
	}
	return false
}

// renameSuffix builds the variable suffix prefix+"<id>_<goal>" that
// keeps one (source, subgoal) renaming disjoint from every other.
func renameSuffix(prefix string, id, goal int) string {
	return prefix + strconv.Itoa(id) + "_" + strconv.Itoa(goal)
}

// headVarsPreserved checks the bucket algorithm's pruning condition: a
// query variable of the subgoal that the query needs outside this atom
// (needed: it is distinguished, or joins with other subgoals) must not
// be mapped to an existential variable of the view, since the source
// then cannot return its value.
func headVarsPreserved(needed []schema.Term, sub schema.Subst, viewExistential []schema.Term) bool {
	// Unification binds view variables to query terms, so an existential
	// view variable standing for a needed query variable shows up as
	// y(view) → x(query); the reverse direction guards against chains.
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

// neededVars returns the variables of goal that the query uses elsewhere:
// head variables and variables shared with other subgoals.
func neededVars(q *schema.Query, goal schema.Atom) []schema.Term {
	var goalVars []schema.Term
	goalVars = goal.Vars(goalVars)
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
			var ovs []schema.Term
			ovs = other.Vars(ovs)
			if termIn(ovs, v) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func termIn(ts []schema.Term, t schema.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// PlanQuery assembles the conjunctive plan for one entry per subgoal:
// P(Ȳ) :- V1(Ū1), ..., Vn(Ūn). It returns an error when the plan is
// unsafe (a head variable not provided by any entry), which also means it
// cannot be sound.
func (b *Buckets) PlanQuery(choice []Entry) (*schema.Query, error) {
	if len(choice) != len(b.Entries) {
		return nil, fmt.Errorf("reformulate: plan has %d entries, query has %d subgoals",
			len(choice), len(b.Entries))
	}
	p := &schema.Query{
		Name: "P",
		Head: append([]schema.Term(nil), b.Query.Head...),
		Body: make([]schema.Atom, len(choice)),
	}
	for i, e := range choice {
		p.Body[i] = e.Atom.Clone()
	}
	if !p.IsSafe() {
		return nil, fmt.Errorf("reformulate: plan %s is unsafe", p)
	}
	return p, nil
}

// Expand replaces every source atom of a plan with the source's
// description body, with head variables bound to the atom's arguments and
// existential variables freshened per occurrence. The result is a query
// over schema relations.
func Expand(plan *schema.Query, cat *lav.Catalog) (*schema.Query, error) {
	exp := &schema.Query{Name: plan.Name, Head: append([]schema.Term(nil), plan.Head...)}
	for i, atom := range plan.Body {
		src, ok := cat.ByName(atom.Pred)
		if !ok || src.Def == nil {
			return nil, fmt.Errorf("reformulate: atom %s is not a described source", atom)
		}
		def := src.Def.Rename(fmt.Sprintf("_e%d", i))
		head := schema.Atom{Pred: src.Name, Args: def.Head}
		sub, ok := schema.UnifyAtoms(head, atom, schema.Subst{})
		if !ok {
			return nil, fmt.Errorf("reformulate: atom %s does not match head of %s", atom, def)
		}
		for _, ba := range def.Body {
			exp.Body = append(exp.Body, sub.ApplyAtom(ba))
		}
	}
	return exp, nil
}

// IsSound reports whether the plan is sound for the query: every answer
// the plan produces (on any source contents consistent with the
// descriptions) is an answer of the query. By the LAV semantics this is
// containment of the plan's expansion in the query.
func IsSound(plan, q *schema.Query, cat *lav.Catalog) (bool, error) {
	exp, err := Expand(plan, cat)
	if err != nil {
		return false, err
	}
	return containment.Contains(exp, q), nil
}
