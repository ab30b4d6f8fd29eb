package reformulate

import (
	"fmt"
	"sort"
	"strings"

	"qporder/internal/lav"
	"qporder/internal/planspace"
	"qporder/internal/schema"
)

// MCD (MiniCon description) records that one source can cover a set of
// query subgoals together (Section 7's discussion of [19]). Unlike bucket
// entries, an MCD may span several subgoals when a shared existential
// variable forces them to be answered by the same source.
type MCD struct {
	// Source is the covering source.
	Source *lav.Source
	// Covered lists the covered subgoal indices, ascending.
	Covered []int
	// Atom is the instantiated source head to place in plans.
	Atom schema.Atom
}

// coveredKey renders the covered set as a map key, e.g. "0,2".
func coveredKey(covered []int) string {
	parts := make([]string, len(covered))
	for i, c := range covered {
		parts[i] = fmt.Sprint(c)
	}
	return strings.Join(parts, ",")
}

// GeneralizedBuckets groups MCDs by their covered subgoal set: the
// generalized buckets of Section 7. Plan spaces are the partitions of the
// query's subgoals into covered sets with non-empty buckets; every plan
// they generate is sound by construction (no post-test needed).
type GeneralizedBuckets struct {
	Query *schema.Query
	// ByCover maps coveredKey -> MCDs with that exact covered set.
	ByCover map[string][]MCD
}

// BuildMCDs forms all MCDs for the query over the catalog. The procedure
// follows MiniCon's core idea: start from a subgoal/view-atom unification
// and close over the query variables that map to existential view
// variables — every other subgoal using such a variable must be covered by
// the same source under the same mapping. Choices of covering atom are
// explored exhaustively; failed closures produce no MCD. Property C1 is
// enforced: distinguished query variables may not map to existential view
// variables.
func BuildMCDs(q *schema.Query, cat *lav.Catalog) (*GeneralizedBuckets, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	gb := &GeneralizedBuckets{Query: q, ByCover: make(map[string][]MCD)}
	seen := make(map[string]bool) // dedupe identical MCDs
	for _, src := range cat.Sources() {
		if src.Def == nil {
			continue
		}
		for gi := range q.Body {
			// An MCD anchored at gi starts from a unifier with it, which
			// needs a body atom over gi's relation.
			if !hasRelation(src.Def, q.Body[gi]) {
				continue
			}
			// Rename per (source, anchor subgoal) so a source covering
			// several disjoint parts of one plan contributes disjoint
			// fresh variables.
			def := src.Def.Rename(renameSuffix("_m", int(src.ID), gi))
			for _, atom := range def.Body {
				sub, ok := schema.UnifyAtoms(atom, q.Body[gi], schema.Subst{})
				if !ok {
					continue
				}
				closeMCD(q, src, def, map[int]bool{gi: true}, sub, func(covered []int, final schema.Subst) {
					// Minimality: keep only MCDs whose smallest covered
					// subgoal is gi, so each MCD is generated once from its
					// anchor subgoal.
					if covered[0] != gi {
						return
					}
					head := final.ApplyAtom(schema.Atom{Pred: src.Name, Args: def.Head})
					m := MCD{Source: src, Covered: covered, Atom: head}
					sig := src.Name + "/" + coveredKey(covered) + "/" + head.String()
					if seen[sig] {
						return
					}
					seen[sig] = true
					key := coveredKey(covered)
					gb.ByCover[key] = append(gb.ByCover[key], m)
				})
			}
		}
	}
	return gb, nil
}

// closeMCD enforces MiniCon's closure property on a partial MCD and emits
// every completed MCD via emit.
//
// Simplification relative to full MiniCon (documented in DESIGN.md): MCDs
// that specialize the query — binding a query variable to a constant or
// merging two query variables — are rejected rather than handled with
// MiniCon's equivalence-class machinery. This costs completeness on
// corner cases, never soundness.
func closeMCD(q *schema.Query, src *lav.Source, def *schema.Query,
	covered map[int]bool, sub schema.Subst, emit func([]int, schema.Subst)) {
	// Reject specializing mappings: every query variable must stay free.
	for _, x := range q.Vars() {
		if sub.Resolve(x) != x {
			return
		}
	}

	// Unification binds view variables to query terms, so "query variable
	// x is matched by an existential view variable" appears as y→x with y
	// existential. Collect those query variables.
	existentialImage := make(map[schema.Term]bool)
	for _, y := range def.ExistentialVars() {
		img := sub.Resolve(y)
		if img.IsVar() && img != y {
			existentialImage[img] = true
		}
	}

	// Property C1: distinguished query variables must not be matched by
	// existential view variables.
	for _, x := range q.DistinguishedVars() {
		if existentialImage[x] {
			return
		}
	}

	// Find a violated closure obligation: a covered subgoal's variable
	// matched by an existential view variable but also occurring in an
	// uncovered subgoal.
	for gi := range covered {
		var vars []schema.Term
		vars = q.Body[gi].Vars(vars)
		for _, x := range vars {
			if !existentialImage[x] {
				continue
			}
			for gj := range q.Body {
				if covered[gj] {
					continue
				}
				var ovs []schema.Term
				ovs = q.Body[gj].Vars(ovs)
				if !termIn(ovs, x) {
					continue
				}
				// Subgoal gj must join the MCD: try every atom of the view.
				for _, atom := range def.Body {
					ext, ok := schema.UnifyAtoms(atom, q.Body[gj], sub)
					if !ok {
						continue
					}
					nc := make(map[int]bool, len(covered)+1)
					for k := range covered {
						nc[k] = true
					}
					nc[gj] = true
					closeMCD(q, src, def, nc, ext, emit)
				}
				return // obligation found; only extended MCDs can be valid
			}
		}
	}

	// No obligations left: the MCD is complete.
	out := make([]int, 0, len(covered))
	for k := range covered {
		out = append(out, k)
	}
	sort.Ints(out)
	emit(out, sub)
}

// MiniConDomain is the ordering-facing view of generalized buckets: one
// derived source per MCD and one plan space per partition of the query's
// subgoals into covered sets.
type MiniConDomain struct {
	Buckets *GeneralizedBuckets
	Source  *lav.Catalog
	Entries *lav.Catalog
	Spaces  []*planspace.Space

	mcdOf map[lav.SourceID]MCD
}

// NewMiniConDomain enumerates the plan spaces. It returns an error when
// some subgoal is not covered by any MCD (the query is unanswerable).
func NewMiniConDomain(gb *GeneralizedBuckets, cat *lav.Catalog) (*MiniConDomain, error) {
	md := &MiniConDomain{
		Buckets: gb,
		Source:  cat,
		Entries: lav.NewCatalog(),
		mcdOf:   make(map[lav.SourceID]MCD),
	}
	// Derive one entry per MCD, grouped by covered set.
	idsByCover := make(map[string][]lav.SourceID)
	covers := make([]string, 0, len(gb.ByCover))
	coverSets := make(map[string][]int)
	for key, mcds := range gb.ByCover {
		covers = append(covers, key)
		coverSets[key] = mcds[0].Covered
		for i, m := range mcds {
			name := fmt.Sprintf("%s@%s#%d", m.Source.Name, key, i)
			derived := md.Entries.MustAdd(name, nil, m.Source.Stats)
			md.mcdOf[derived.ID] = m
			idsByCover[key] = append(idsByCover[key], derived.ID)
		}
	}
	sort.Strings(covers)

	// Enumerate exact covers of the subgoal set by disjoint covered sets.
	n := len(gb.Query.Body)
	var rec func(taken []bool, parts []string)
	found := false
	rec = func(taken []bool, parts []string) {
		lowest := -1
		for i, t := range taken {
			if !t {
				lowest = i
				break
			}
		}
		if lowest < 0 {
			found = true
			buckets := make([][]lav.SourceID, len(parts))
			for i, key := range parts {
				buckets[i] = idsByCover[key]
			}
			md.Spaces = append(md.Spaces, planspace.NewSpace(buckets))
			return
		}
		for _, key := range covers {
			set := coverSets[key]
			if set[0] != lowest && !intIn(set, lowest) {
				continue
			}
			ok := true
			for _, g := range set {
				if taken[g] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, g := range set {
				taken[g] = true
			}
			rec(taken, append(parts, key))
			for _, g := range set {
				taken[g] = false
			}
		}
	}
	rec(make([]bool, n), nil)
	if !found {
		return nil, fmt.Errorf("reformulate: no MCD cover exists for query %s", gb.Query)
	}
	return md, nil
}

func intIn(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// MCD returns the MCD behind a derived entry ID.
func (md *MiniConDomain) MCD(id lav.SourceID) MCD { return md.mcdOf[id] }

// EntriesWithStats derives a parallel entry catalog with statistics from
// statsOf applied to each MCD's underlying source (see
// PlanDomain.EntriesWithStats).
func (md *MiniConDomain) EntriesWithStats(statsOf func(orig *lav.Source) lav.Stats) *lav.Catalog {
	out := lav.NewCatalog()
	for _, e := range md.Entries.Sources() {
		orig := md.mcdOf[e.ID].Source
		out.MustAdd(e.Name, nil, statsOf(orig))
	}
	return out
}

// PlanQuery renders a concrete plan from any of the domain's spaces as a
// conjunctive query over the sources.
func (md *MiniConDomain) PlanQuery(p *planspace.Plan) (*schema.Query, error) {
	if !p.Concrete() {
		return nil, fmt.Errorf("reformulate: PlanQuery of abstract plan %s", p.Key())
	}
	q := md.Buckets.Query
	out := &schema.Query{Name: "P", Head: append([]schema.Term(nil), q.Head...)}
	for _, id := range p.Sources() {
		out.Body = append(out.Body, md.mcdOf[id].Atom.Clone())
	}
	if !out.IsSafe() {
		return nil, fmt.Errorf("reformulate: minicon plan %s is unsafe", out)
	}
	return out, nil
}
