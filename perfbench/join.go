package main

import (
	"strings"

	"qporder/internal/execsim"
	"qporder/internal/schema"
)

// This file is the benchmark's own evaluator for the output checks: a
// backtracking nested-loop join of a conjunctive query over a database,
// written apart from execsim so a fault in the engine cannot hide in
// the check.

// tupleSet is a set of head tuples, keyed by tupleKey.
type tupleSet map[string]struct{}

// tupleKey joins a tuple's constant values with a separator no constant
// contains.
func tupleKey(vals []string) string { return strings.Join(vals, "\x00") }

// evalQuery returns the distinct head tuples of q over db.
func evalQuery(q *schema.Query, db execsim.DB) tupleSet {
	out := tupleSet{}
	bind := map[string]string{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Body) {
			vals := make([]string, len(q.Head))
			for j, t := range q.Head {
				vals[j] = value(t, bind)
			}
			out[tupleKey(vals)] = struct{}{}
			return
		}
		goal := q.Body[i]
	rows:
		for _, row := range db[goal.Pred] {
			if len(row.Args) != len(goal.Args) {
				continue
			}
			var added []string
			for j, t := range goal.Args {
				v := row.Args[j].Name
				if t.Const {
					if t.Name != v {
						undo(bind, added)
						continue rows
					}
					continue
				}
				if b, ok := bind[t.Name]; ok {
					if b != v {
						undo(bind, added)
						continue rows
					}
					continue
				}
				bind[t.Name] = v
				added = append(added, t.Name)
			}
			rec(i + 1)
			undo(bind, added)
		}
	}
	rec(0)
	return out
}

func value(t schema.Term, bind map[string]string) string {
	if t.Const {
		return t.Name
	}
	return bind[t.Name]
}

func undo(bind map[string]string, vars []string) {
	for _, v := range vars {
		delete(bind, v)
	}
}

// digest is an order-independent fingerprint of a set of distinct
// tuples: the sum of each tuple's 64-bit FNV-1a hash.
type digest struct {
	sum uint64
	n   int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashBytes(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// add folds one tuple, given by its values, into the digest.
func (d *digest) add(vals []string) {
	h := uint64(fnvOffset)
	for i, v := range vals {
		if i > 0 {
			h = hashBytes(h, "\x00")
		}
		h = hashBytes(h, v)
	}
	d.sum += h
	d.n++
}

// addAtom folds an atom's arguments into the digest without allocating;
// it agrees with add over the same values.
func (d *digest) addAtom(a schema.Atom) {
	h := uint64(fnvOffset)
	for i, t := range a.Args {
		if i > 0 {
			h = hashBytes(h, "\x00")
		}
		h = hashBytes(h, t.Name)
	}
	d.sum += h
	d.n++
}

// digestOf fingerprints a tuple set.
func digestOf(s tupleSet) digest {
	var d digest
	for k := range s {
		d.add(strings.Split(k, "\x00"))
	}
	return d
}
