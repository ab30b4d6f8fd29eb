// Package reformulate translates a user query over the mediated schema
// into query plans over the sources. It implements the bucket algorithm
// [16] used throughout the paper, plan expansion and the containment-based
// soundness test, and a MiniCon-style generalized-bucket builder
// (Section 7).
package reformulate

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

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
//
// The source's variables are renamed apart per (source, subgoal) by the
// suffix "_v<id>_<subgoal>", but only in the entries' atoms: unification
// runs on the unrenamed description through a binding table that keeps
// view and query variables apart (see bucketUnifier).
func BuildBuckets(q *schema.Query, cat *lav.Catalog) (*Buckets, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	b := &Buckets{Query: q, Entries: make([][]Entry, len(q.Body))}
	var u bucketUnifier
	for gi, goal := range q.Body {
		needed := neededVars(q, goal)
		for _, src := range cat.Sources() {
			// Only a body atom over the subgoal's relation can unify
			// with it, so a source without one is passed over.
			if src.Def == nil || !hasRelation(src.Def, goal) {
				continue
			}
			u.reset(src, gi, goal, needed)
			for _, atom := range src.Def.Body {
				if !u.unify(atom) || !u.headVarsPreserved() {
					continue
				}
				// Plan atoms reference the source by catalog name, so the
				// same description shared by several sources stays
				// unambiguous.
				b.Entries[gi] = append(b.Entries[gi], Entry{
					Source:  src,
					Subgoal: gi,
					Atom:    u.headImage(),
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
// and arity, which unification requires before it compares any argument.
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

// cutRenameSuffix reports whether name ends in renameSuffix(prefix, id,
// goal) and returns what precedes the suffix, without building it.
func cutRenameSuffix(name, prefix string, id, goal int) (string, bool) {
	name, ok := cutInt(name, goal)
	if !ok || !strings.HasSuffix(name, "_") {
		return "", false
	}
	if name, ok = cutInt(name[:len(name)-1], id); !ok {
		return "", false
	}
	return strings.CutSuffix(name, prefix)
}

// cutInt cuts n's decimal form off the end of s.
func cutInt(s string, n int) (string, bool) {
	var buf [20]byte
	d := strconv.AppendInt(buf[:0], int64(n), 10)
	if len(s) < len(d) || s[len(s)-len(d):] != string(d) {
		return "", false
	}
	return s[:len(s)-len(d)], true
}

// ref is a term of the bucket unifier's binding table: a variable node,
// or the constant c when node < 0.
type ref struct {
	node int
	c    schema.Term
}

// bucketUnifier unifies the body atoms of one unrenamed source
// description with one subgoal, producing exactly the unifier that
// schema.UnifyAtoms finds between the description renamed by
// renameSuffix("_v", id, goal) and the subgoal.
//
// Each distinct variable is a node: the description's variables come
// first (nodes 0..len(viewVars)-1, head variables first), then the
// subgoal's. A subgoal variable whose name equals a renamed description
// variable is that variable's node, as the two would be one term after
// renaming. bound and img hold the unifier: img[v] is v's direct binding
// when bound[v], so image chains resolve exactly as in a schema.Subst.
// Names are rendered only for description variables in a kept entry's
// atom. A bucketUnifier's slices are reused across sources and subgoals.
type bucketUnifier struct {
	src      *lav.Source
	id, gi   int
	goal     schema.Atom
	viewVars []schema.Term
	// goalNodes is the node of each subgoal argument (-1 for a constant),
	// queryVars the subgoal variables with nodes of their own.
	goalNodes []int
	queryVars []schema.Term
	// existential marks description variables missing from its head,
	// needed the subgoal variables the query uses outside the subgoal.
	existential, needed []bool
	bound               []bool
	img                 []ref
	names               []string
	slab                []schema.Term
}

// reset prepares u for src's description against subgoal gi.
func (u *bucketUnifier) reset(src *lav.Source, gi int, goal schema.Atom, needed []schema.Term) {
	def := src.Def
	u.src, u.id, u.gi, u.goal = src, int(src.ID), gi, goal
	u.viewVars = u.viewVars[:0]
	for _, t := range def.Head {
		if t.IsVar() && !termIn(u.viewVars, t) {
			u.viewVars = append(u.viewVars, t)
		}
	}
	nHead := len(u.viewVars)
	for _, a := range def.Body {
		for _, t := range a.Args {
			if t.IsVar() && !termIn(u.viewVars, t) {
				u.viewVars = append(u.viewVars, t)
			}
		}
	}
	nv := len(u.viewVars)
	u.queryVars = u.queryVars[:0]
	u.goalNodes = u.goalNodes[:0]
	for _, t := range goal.Args {
		u.goalNodes = append(u.goalNodes, u.goalNode(t, nv))
	}
	n := nv + len(u.queryVars)
	u.existential = resize(u.existential, n)
	u.needed = resize(u.needed, n)
	u.bound = resize(u.bound, n)
	u.img = resize(u.img, n)
	u.names = resize(u.names, nv)
	for v := nHead; v < nv; v++ {
		u.existential[v] = true
	}
	for _, t := range needed {
		u.needed[u.goalNode(t, nv)] = true
	}
}

// goalNode returns the node of subgoal variable t (-1 for a constant),
// giving a new variable the next query node.
func (u *bucketUnifier) goalNode(t schema.Term, nv int) int {
	if t.Const {
		return -1
	}
	if base, ok := cutRenameSuffix(t.Name, "_v", u.id, u.gi); ok {
		if v := slices.Index(u.viewVars, schema.Var(base)); v >= 0 {
			return v
		}
	}
	if k := slices.Index(u.queryVars, t); k >= 0 {
		return nv + k
	}
	u.queryVars = append(u.queryVars, t)
	return nv + len(u.queryVars) - 1
}

// resize returns s with length n and every element zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// viewRef is the table term of a description argument.
func (u *bucketUnifier) viewRef(t schema.Term) ref {
	if t.Const {
		return ref{node: -1, c: t}
	}
	return ref{node: slices.Index(u.viewVars, t)}
}

// resolve follows bindings from r to a constant or an unbound node.
func (u *bucketUnifier) resolve(r ref) ref {
	for r.node >= 0 && u.bound[r.node] {
		r = u.img[r.node]
	}
	return r
}

// unify computes the most general unifier of the description atom and
// the subgoal, binding as schema.UnifyTerms does position by position:
// the resolved description side if it is a variable, else the resolved
// subgoal side.
func (u *bucketUnifier) unify(atom schema.Atom) bool {
	if atom.Pred != u.goal.Pred || len(atom.Args) != len(u.goal.Args) {
		return false
	}
	clear(u.bound)
	for i, t := range atom.Args {
		a := u.resolve(u.viewRef(t))
		b := ref{node: u.goalNodes[i]}
		if b.node < 0 {
			b.c = u.goal.Args[i]
		}
		b = u.resolve(b)
		switch {
		case a == b:
		case a.node >= 0:
			u.bound[a.node], u.img[a.node] = true, b
		case b.node >= 0:
			u.bound[b.node], u.img[b.node] = true, a
		default: // distinct constants
			return false
		}
	}
	return true
}

// headVarsPreserved checks the bucket algorithm's pruning condition on
// the current unifier: a query variable of the subgoal that the query
// needs outside this atom (it is distinguished, or joins with other
// subgoals) must not be mapped to an existential variable of the view,
// since the source then cannot return its value.
func (u *bucketUnifier) headVarsPreserved() bool {
	// Unification binds view variables to query terms, so an existential
	// view variable standing for a needed query variable shows up as
	// y(view) → x(query); the reverse direction guards against chains.
	for v, ex := range u.existential {
		if r := u.resolve(ref{node: v}); ex && r.node >= 0 && u.needed[r.node] {
			return false
		}
	}
	for v, need := range u.needed {
		if r := u.resolve(ref{node: v}); need && r.node >= 0 && u.existential[r.node] {
			return false
		}
	}
	return true
}

// headImage applies the unifier to the renamed source head one step, as
// schema.Subst.ApplyAtom does: a head variable becomes its direct
// binding, or its own renamed name when unbound.
func (u *bucketUnifier) headImage() schema.Atom {
	head := u.src.Def.Head
	if cap(u.slab)-len(u.slab) < len(head) {
		u.slab = make([]schema.Term, 0, max(64, len(head)))
	}
	args := u.slab[len(u.slab) : len(u.slab)+len(head) : len(u.slab)+len(head)]
	u.slab = u.slab[:len(u.slab)+len(head)]
	for j, t := range head {
		r := u.viewRef(t)
		if r.node >= 0 && u.bound[r.node] {
			r = u.img[r.node]
		}
		args[j] = u.term(r)
	}
	return schema.Atom{Pred: u.src.Name, Args: args}
}

// term renders a table term: a constant as itself, a query node as the
// subgoal's variable, a view node as its renamed variable.
func (u *bucketUnifier) term(r ref) schema.Term {
	switch nv := len(u.viewVars); {
	case r.node < 0:
		return r.c
	case r.node >= nv:
		return u.queryVars[r.node-nv]
	}
	if u.names[r.node] == "" {
		u.names[r.node] = u.viewVars[r.node].Name + renameSuffix("_v", u.id, u.gi)
	}
	return schema.Var(u.names[r.node])
}

// neededVars returns the variables of goal that the query uses elsewhere:
// head variables and variables shared with other subgoals, in order of
// first occurrence in goal.
func neededVars(q *schema.Query, goal schema.Atom) []schema.Term {
	var out []schema.Term
	for i, v := range goal.Args {
		if v.Const || termIn(goal.Args[:i], v) {
			continue
		}
		if termIn(q.Head, v) || usedOutside(q, goal, v) {
			out = append(out, v)
		}
	}
	return out
}

// usedOutside reports whether v occurs in a subgoal of q other than
// goal (every atom equal to goal counts as goal).
func usedOutside(q *schema.Query, goal schema.Atom, v schema.Term) bool {
	for _, other := range q.Body {
		if !other.Equal(goal) && termIn(other.Args, v) {
			return true
		}
	}
	return false
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
	// The atoms' arguments share one slab, each capped at its own length.
	n := 0
	for _, e := range choice {
		n += len(e.Atom.Args)
	}
	slab := make([]schema.Term, n)
	for i, e := range choice {
		args := slab[:len(e.Atom.Args):len(e.Atom.Args)]
		slab = slab[len(e.Atom.Args):]
		copy(args, e.Atom.Args)
		p.Body[i] = schema.Atom{Pred: e.Atom.Pred, Args: args}
	}
	if !p.IsSafe() {
		return nil, fmt.Errorf("reformulate: plan %s is unsafe", p)
	}
	return p, nil
}

// Expand replaces every source atom of a plan with the source's
// description body, with head variables bound to the atom's arguments and
// existential variables freshened per occurrence: the description's
// variables carry the suffix "_e<i>" at plan position i. The result is a
// query over schema relations.
func Expand(plan *schema.Query, cat *lav.Catalog) (*schema.Query, error) {
	exp := &schema.Query{Name: plan.Name, Head: append([]schema.Term(nil), plan.Head...)}
	for i, atom := range plan.Body {
		var err error
		if exp.Body, err = expandAtom(exp.Body, atom, i, cat); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// expandAtom appends the expansion of the source atom at plan position
// pos to dst: the description renamed by "_e<pos>", its head unified with
// atom, and that unifier applied to its body one step.
func expandAtom(dst []schema.Atom, atom schema.Atom, pos int, cat *lav.Catalog) ([]schema.Atom, error) {
	src, ok := cat.ByName(atom.Pred)
	if !ok || src.Def == nil {
		return nil, fmt.Errorf("reformulate: atom %s is not a described source", atom)
	}
	def := src.Def.Rename("_e" + strconv.Itoa(pos))
	head := schema.Atom{Pred: src.Name, Args: def.Head}
	sub, ok := schema.UnifyAtoms(head, atom, schema.Subst{})
	if !ok {
		return nil, fmt.Errorf("reformulate: atom %s does not match head of %s", atom, def)
	}
	for _, ba := range def.Body {
		dst = append(dst, sub.ApplyAtom(ba))
	}
	return dst, nil
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
