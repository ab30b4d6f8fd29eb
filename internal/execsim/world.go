package execsim

import (
	"fmt"
	"math/rand"

	"qporder/internal/lav"
	"qporder/internal/schema"
)

// RelationSpec describes one mediated-schema relation for world
// generation.
type RelationSpec struct {
	Name  string
	Arity int
}

// WorldConfig parameterizes synthetic world generation.
type WorldConfig struct {
	// Relations lists the schema relations to populate.
	Relations []RelationSpec
	// TuplesPerRelation is the number of tuples per relation.
	TuplesPerRelation int
	// DomainSize is the number of distinct constants per attribute
	// position; smaller values produce more joins.
	DomainSize int
	// Seed drives all randomness.
	Seed int64
}

// GenerateWorld builds a random ground database over the schema
// relations. Constants are "c0".."c<DomainSize-1>", shared across
// relations and positions so joins have matches.
func GenerateWorld(cfg WorldConfig) DB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := make(DB)
	for _, rel := range cfg.Relations {
		seen, distinct := NewAnswerSet(), 1
		for i := 0; i < rel.Arity; i++ {
			distinct *= cfg.DomainSize
		}
		for len(db[rel.Name]) < cfg.TuplesPerRelation {
			a := schema.Atom{Pred: rel.Name, Args: make([]schema.Term, rel.Arity)}
			for i := range a.Args {
				a.Args[i] = schema.Const(fmt.Sprintf("c%d", rng.Intn(cfg.DomainSize)))
			}
			if seen.Add([]schema.Atom{a}) == 1 {
				db[rel.Name] = append(db[rel.Name], a)
			} else if seen.Len() >= distinct {
				break // tolerate saturation of small domains
			}
		}
	}
	return db
}

// PopulateSources derives source contents from a world: each source holds
// a random subset of its description's answers on the world, reflecting
// the LAV semantics that sources are sound but incomplete. completeness
// is the inclusion probability per tuple. Sources without descriptions
// are skipped. The returned DB maps source names to tuples.
func PopulateSources(cat *lav.Catalog, world DB, completeness float64, seed int64) DB {
	return PopulateSourcesWith(cat, world, func(string) float64 { return completeness }, seed)
}

// PopulateSourcesWith is PopulateSources with per-source completeness,
// e.g. to make simulated contents consistent with a coverage model.
func PopulateSourcesWith(cat *lav.Catalog, world DB, completeness func(source string) float64, seed int64) DB {
	rng := rand.New(rand.NewSource(seed))
	store := make(DB)
	for _, src := range cat.Sources() {
		if src.Def == nil {
			continue
		}
		c := completeness(src.Name)
		var picked []schema.Atom
		for _, a := range Eval(src.Def, world) {
			if rng.Float64() < c {
				picked = append(picked, schema.Atom{Pred: src.Name, Args: a.Args})
			}
		}
		store[src.Name] = packed(picked) // present but possibly empty
	}
	return store
}

// packed copies atoms into exactly sized storage, every argument in one
// shared allocation, so a long-lived relation carries no append slack
// and one object per relation instead of one per tuple. No atoms give
// nil.
func packed(atoms []schema.Atom) []schema.Atom {
	if len(atoms) == 0 {
		return nil
	}
	n := 0
	for _, a := range atoms {
		n += len(a.Args)
	}
	terms, out := make([]schema.Term, 0, n), make([]schema.Atom, len(atoms))
	for i, a := range atoms {
		k := len(terms)
		terms = append(terms, a.Args...)
		out[i] = schema.Atom{Pred: a.Pred, Args: terms[k:len(terms):len(terms)]}
	}
	return out
}
