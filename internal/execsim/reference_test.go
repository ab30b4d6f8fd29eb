package execsim

import (
	"fmt"
	"math/rand"
	"sort"

	"qporder/internal/lav"
	"qporder/internal/physopt"
	"qporder/internal/schema"
)

// refEngine is the substitution-map executor the step-list executor
// replaced, kept as the reference for the differential tests: nested
// loops that clone a Subst per matched tuple, a rendered-string access
// cache key and rendered-string head dedup. Its accounting must match
// Engine's exactly.
type refEngine struct {
	cat            *lav.Catalog
	store          DB
	Caching        bool
	OnAccess       func(source string, tuples, failedAttempts int)
	rng            *rand.Rand
	cache          map[string][]schema.Atom
	Cost           float64
	Accesses       int
	CacheHits      int
	FailedAttempts int
}

func newRefEngine(cat *lav.Catalog, store DB) *refEngine {
	return &refEngine{cat: cat, store: store, cache: make(map[string][]schema.Atom)}
}

func (e *refEngine) EnableFailures(seed int64) { e.rng = rand.New(rand.NewSource(seed)) }

func (e *refEngine) ExecutePlan(pq *schema.Query) ([]schema.Atom, error) {
	for _, a := range pq.Body {
		if _, ok := e.cat.ByName(a.Pred); !ok {
			return nil, fmt.Errorf("execsim: plan atom %s is not a catalog source", a)
		}
	}
	var out []schema.Atom
	seen := make(map[string]bool)
	var rec func(i int, sub schema.Subst) error
	rec = func(i int, sub schema.Subst) error {
		if i == len(pq.Body) {
			head := sub.ApplyAtom(pq.HeadAtom())
			if k := head.String(); !seen[k] {
				seen[k] = true
				out = append(out, head)
			}
			return nil
		}
		goal := sub.ApplyAtom(pq.Body[i])
		matches, err := e.access(i, goal)
		if err != nil {
			return err
		}
		for _, tuple := range matches {
			ext, ok := refMatchAtom(goal, tuple, sub)
			if !ok {
				continue
			}
			if err := rec(i+1, ext); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, schema.Subst{}); err != nil {
		return nil, err
	}
	refSortAtoms(out)
	return out, nil
}

func (e *refEngine) ExecutePhysical(p *physopt.Plan) ([]schema.Atom, error) {
	for _, s := range p.Steps {
		if _, ok := e.cat.ByName(s.Atom.Pred); !ok {
			return nil, fmt.Errorf("execsim: plan atom %s is not a catalog source", s.Atom)
		}
	}
	scanned := make([][]schema.Atom, len(p.Steps))
	for i, s := range p.Steps {
		if s.Method != physopt.Scan {
			continue
		}
		rows, err := e.access(i, s.Atom)
		if err != nil {
			return nil, err
		}
		scanned[i] = rows
	}
	var out []schema.Atom
	seen := make(map[string]bool)
	var rec func(i int, sub schema.Subst) error
	rec = func(i int, sub schema.Subst) error {
		if i == len(p.Steps) {
			head := sub.ApplyAtom(schema.Atom{Pred: p.Name, Args: p.Head})
			if k := head.String(); !seen[k] {
				seen[k] = true
				out = append(out, head)
			}
			return nil
		}
		step := p.Steps[i]
		goal := sub.ApplyAtom(step.Atom)
		rows := scanned[i]
		if step.Method == physopt.Bind {
			var err error
			rows, err = e.access(i, goal)
			if err != nil {
				return err
			}
		}
		for _, row := range rows {
			if ext, ok := refMatchAtom(goal, row, sub); ok {
				if err := rec(i+1, ext); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := rec(0, schema.Subst{}); err != nil {
		return nil, err
	}
	refSortAtoms(out)
	return out, nil
}

func (e *refEngine) access(pos int, goal schema.Atom) ([]schema.Atom, error) {
	key := fmt.Sprintf("%d/%s", pos, goal.String())
	if e.Caching {
		if res, ok := e.cache[key]; ok {
			e.CacheHits++
			return res, nil
		}
	}
	src, _ := e.cat.ByName(goal.Pred)
	st := src.Stats
	failed := 0
	if e.rng != nil {
		for e.rng.Float64() < st.FailureProb {
			e.Cost += st.Overhead
			e.FailedAttempts++
			failed++
		}
	}
	e.Cost += st.Overhead
	var res []schema.Atom
	for _, tuple := range e.store[goal.Pred] {
		if _, ok := refMatchAtom(goal, tuple, schema.Subst{}); ok {
			res = append(res, tuple)
		}
	}
	e.Cost += st.TransmitCost * float64(len(res))
	e.Accesses++
	if e.Caching {
		e.cache[key] = res
	}
	if e.OnAccess != nil {
		e.OnAccess(goal.Pred, len(res), failed)
	}
	return res, nil
}

// refMatchAtom is the clone-first MatchAtom the allocation-free one
// replaced: it copies s up front and binds variables as it meets them.
func refMatchAtom(pattern, ground schema.Atom, s schema.Subst) (schema.Subst, bool) {
	if pattern.Pred != ground.Pred || len(pattern.Args) != len(ground.Args) {
		return s, false
	}
	cur := s.Clone()
	for i, pt := range pattern.Args {
		gt := ground.Args[i]
		pt = cur.Resolve(pt)
		if pt.Const {
			if pt != gt {
				return s, false
			}
		} else {
			cur[pt] = gt
		}
	}
	return cur, true
}

func refSortAtoms(as []schema.Atom) {
	sort.Slice(as, func(i, j int) bool { return as[i].String() < as[j].String() })
}
