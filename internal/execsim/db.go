// Package execsim is a small query-execution engine over synthetic tuple
// stores: the downstream consumer of plan ordering. It evaluates
// conjunctive queries (mediated-schema queries over a world database, and
// query plans over source relations), accounts access costs following the
// paper's cost model, simulates source failures and result caching, and
// accumulates the union of plan answers — everything needed to demonstrate
// time-to-first-answer behavior end to end.
package execsim

import (
	"fmt"
	"hash/maphash"

	"qporder/internal/schema"
)

// DB maps a relation name to its ground tuples. Tuples are atoms whose
// arguments are all constants.
type DB map[string][]schema.Atom

// Add inserts a tuple; all arguments must be constants.
func (db DB) Add(pred string, values ...string) {
	args := make([]schema.Term, len(values))
	for i, v := range values {
		args[i] = schema.Const(v)
	}
	db[pred] = append(db[pred], schema.Atom{Pred: pred, Args: args})
}

// AddAtom inserts a ground atom.
func (db DB) AddAtom(a schema.Atom) error {
	for _, t := range a.Args {
		if t.IsVar() {
			return fmt.Errorf("execsim: non-ground tuple %s", a)
		}
	}
	db[a.Pred] = append(db[a.Pred], a)
	return nil
}

// Size returns the total number of tuples.
func (db DB) Size() int {
	n := 0
	for _, ts := range db {
		n += len(ts)
	}
	return n
}

// Eval evaluates a conjunctive query against the database and returns the
// distinct head instances, deterministically ordered.
func Eval(q *schema.Query, db DB) []schema.Atom {
	p, out := compile(q.HeadAtom(), q.Body), NewAnswerSet()
	_ = p.run(func(i int) []schema.Atom { return db[p.steps[i].pred] }, // emit cannot fail
		func(head schema.Atom) error { out.put(head); return nil })
	return out.sorted()
}

// atomKeyArity is the widest atom keyed without allocating: the key
// inlines up to this many arguments in a comparable array. Source atoms
// in the experiment domains are binary, so the inline path covers every
// cached access; wider atoms fall back to their rendering.
const atomKeyArity = 8

// atomKey is a comparable key carrying the atom's value (schema.Term is
// a comparable struct), so map probes need no rendered string. wide is
// the rendering of an atom wider than atomKeyArity, and empty otherwise.
type atomKey struct {
	pred string
	n    int
	args [atomKeyArity]schema.Term
	wide string
}

// keyOf builds a's key; only atoms wider than atomKeyArity allocate.
func keyOf(a schema.Atom) (k atomKey) {
	if len(a.Args) > atomKeyArity {
		return atomKey{wide: a.String()}
	}
	k.pred = a.Pred
	k.n = len(a.Args)
	copy(k.args[:], a.Args)
	return k
}

// AnswerSet accumulates the union of plan outputs with deduplication.
// Dedup keys on the atom value, not its rendering: an atom hashes in one
// pass over its predicate and arguments, and Atom.Equal settles hash
// collisions. The execution hot path re-presents the same answers plan
// after plan, and those duplicate Adds are allocation-free (gated by
// TestAnswerSetAddAllocs).
type AnswerSet struct {
	seed  maphash.Seed
	index map[uint64]int32 // probe key → position in atoms; see find
	atoms []schema.Atom
	// slab holds the arguments of the answers put copies: its used
	// prefix belongs to atoms already handed out, so a full chunk is
	// replaced, never reused, even across reset.
	slab  []schema.Term
	order schema.AtomSorter // scratch for sorted
}

// Slab chunks grow by doubling from slabMin to slabMax terms, so the
// many small sets Eval builds stay small while an engine's reused set
// soon allocates once per slabMax new answer arguments.
const (
	slabMin = 16
	slabMax = 1024
)

// NewAnswerSet returns an empty accumulator.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{seed: maphash.MakeSeed(), index: make(map[uint64]int32)}
}

// Add inserts atoms and returns how many were new.
func (s *AnswerSet) Add(atoms []schema.Atom) int {
	fresh := 0
	for _, a := range atoms {
		if key, held := s.find(a); !held {
			s.insert(key, a)
			fresh++
		}
	}
	return fresh
}

// put inserts a copy of a, whose arguments may be scratch space, and
// reports whether it was new. A duplicate costs no allocation; a new
// answer's arguments are copied into the slab.
func (s *AnswerSet) put(a schema.Atom) bool {
	key, held := s.find(a)
	if !held {
		s.insert(key, schema.Atom{Pred: a.Pred, Args: s.hold(a.Args)})
	}
	return !held
}

// hold copies args into the slab. The copy's capacity ends at its
// length, so appending to it cannot reach another answer's arguments.
func (s *AnswerSet) hold(args []schema.Term) []schema.Term {
	if cap(s.slab)-len(s.slab) < len(args) {
		s.slab = make([]schema.Term, 0, max(min(2*cap(s.slab), slabMax), slabMin, len(args)))
	}
	k := len(s.slab)
	s.slab = append(s.slab, args...)
	return s.slab[k:len(s.slab):len(s.slab)]
}

// insert holds a under key, a free key find returned for it.
func (s *AnswerSet) insert(key uint64, a schema.Atom) {
	s.index[key] = int32(len(s.atoms))
	s.atoms = append(s.atoms, a)
}

// probeStride steps through the probe keys of colliding hashes; being
// odd, it visits every uint64 before repeating.
const probeStride = 0x9e3779b97f4a7c15

// find returns the probe key under which the set holds a, or the first
// free one, and whether a is held. Probing starts at a's hash; an atom
// whose key is taken by a different atom moves on by probeStride.
func (s *AnswerSet) find(a schema.Atom) (uint64, bool) {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteString(a.Pred)
	for _, t := range a.Args {
		h.WriteByte(byte(len(t.Name)))
		h.WriteString(t.Name)
		if t.Const {
			h.WriteByte(1)
		}
	}
	for key := h.Sum64(); ; key += probeStride {
		i, taken := s.index[key]
		if !taken || s.atoms[i].Equal(a) {
			return key, taken
		}
	}
}

// reset empties the set for reuse; atoms already put stay valid, their
// arguments untouched in the slab.
func (s *AnswerSet) reset() {
	clear(s.index)
	s.atoms = s.atoms[:0]
}

// sorted returns a copy of the atoms sorted by rendering.
func (s *AnswerSet) sorted() []schema.Atom {
	if len(s.atoms) == 0 {
		return nil
	}
	return s.order.AppendSorted(make([]schema.Atom, 0, len(s.atoms)), s.atoms)
}

// Len returns the number of distinct answers.
func (s *AnswerSet) Len() int { return len(s.atoms) }

// Atoms returns the distinct answers in insertion order.
func (s *AnswerSet) Atoms() []schema.Atom { return s.atoms }

// Contains reports whether the answer is present.
func (s *AnswerSet) Contains(a schema.Atom) bool {
	_, ok := s.find(a)
	return ok
}

// String renders the answers, sorted, one per line.
func (s *AnswerSet) String() string {
	var order schema.AtomSorter
	var b []byte
	for _, a := range order.AppendSorted(nil, s.atoms) {
		b = append(a.AppendTo(b), '\n')
	}
	return string(b)
}
