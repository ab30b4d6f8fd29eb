// Command qporder is a command-line mediator: it loads a domain file
// (LAV source descriptions with statistics, plus a query), reformulates
// the query with the bucket algorithm, orders the candidate plans with a
// chosen algorithm and utility measure, filters them through the
// soundness test, and prints the top-k sound plans. With -execute it also
// runs the plans against a simulated world and reports answers and cost.
//
// Usage:
//
//	qporder -f domain.qp -algo streamer -measure chain-fail -k 5
//	qporder -f domain.qp -q 'Q(M) :- play-in(ford, M)' -algo greedy -measure linear
//	qporder -f domain.qp -execute
//	qporder -f domain.qp -explain
//	qporder -f domain.qp -trace run.ndjson && qptrace run.ndjson
//	qporder -f domain.qp -execute -calibration
//
// -explain prints, per emitted plan, the ordering provenance: utility
// at selection, dominance tests won and lost, refinements, splits, and
// utility evaluations since the previous plan. -trace exports the run's
// request trace (spans plus provenance) as one NDJSON line for qptrace.
// -calibration (with -execute) pairs the estimator's predictions with
// execution ground truth — per-source Tuples statistics against observed
// result sizes, per-plan utilities against realized answers or cost —
// and prints q-error, bias, and EWMA drift per series after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qporder/internal/abstraction"
	"qporder/internal/core"
	"qporder/internal/costmodel"
	"qporder/internal/domfile"
	"qporder/internal/execsim"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/physopt"
	"qporder/internal/planspace"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
	"qporder/internal/store"
)

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += prefix + line + "\n"
	}
	return out
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qporder:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file      = flag.String("f", "", "domain file (this or -store is required)")
		storeDir  = flag.String("store", "", "segment/catalog store directory (alternative to -f)")
		qstr      = flag.String("q", "", "query (overrides the file's query)")
		algo      = flag.String("algo", "streamer", "ordering algorithm: greedy, idrips, streamer, pi, exhaustive")
		meas      = flag.String("measure", "chain", "utility: linear, chain, chain-fail, chain-fail-caching, monetary, monetary-caching")
		k         = flag.Int("k", 10, "number of plans to produce")
		bigN      = flag.Float64("N", 50000, "selectivity denominator N of cost measure (2)")
		execute   = flag.Bool("execute", false, "execute the ordered plans against a simulated world")
		physical  = flag.Bool("physical", false, "run plans through the physical optimizer (join order + access methods)")
		seed      = flag.Int64("seed", 1, "seed for the simulated world (-execute)")
		stats     = flag.Bool("stats", false, "report phase spans and pipeline counters to stderr on exit")
		plansOnly = flag.Bool("plans-only", false, "print only the ordered plan queries, one per line (for diffing against qpload -print-plans)")
		explain   = flag.Bool("explain", false, "print per-plan ordering provenance after the plan list")
		traceOut  = flag.String("trace", "", "write the run's trace (spans + provenance) as NDJSON to this file")
		calib     = flag.Bool("calibration", false, "report estimate-vs-actual calibration (q-error, bias, EWMA drift) after the run; needs -execute")
	)
	flag.Parse()
	var dom *domfile.Domain
	switch {
	case *file != "" && *storeDir != "":
		return fmt.Errorf("-f and -store are mutually exclusive")
	case *storeDir != "":
		// The catalog carries everything the ordering pipeline needs
		// besides the bitsets (LAV defs, statistics, the query); the light
		// LoadCatalog path never faults a segment data page.
		cat, q, err := store.LoadCatalog(*storeDir)
		if err != nil {
			return err
		}
		dom = &domfile.Domain{Catalog: cat, Query: q}
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		var perr error
		dom, perr = domfile.Parse(f)
		f.Close()
		if perr != nil {
			return perr
		}
	default:
		return fmt.Errorf("missing -f domain file (or -store directory)")
	}
	var err error
	q := dom.Query
	if *qstr != "" {
		if q, err = schema.ParseQuery(*qstr); err != nil {
			return err
		}
	}
	if q == nil {
		return fmt.Errorf("no query: the file has none and -q was not given")
	}
	if !*plansOnly {
		fmt.Println("query:", q)
	}

	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
	}
	// The request trace times every phase: its spans feed the -stats
	// span aggregates (through reg), and it doubles as the provenance
	// recorder for -explain and the exported span tree for -trace; nil
	// (the default) keeps the ordering hot path allocation-identical to
	// an untraced run.
	var rt *obs.Trace
	if *stats || *explain || *traceOut != "" {
		rt = obs.NewTrace(reg, "qporder")
		rt.SetAttr("query", q.String())
		rt.SetAttr("algorithm", *algo)
		rt.SetAttr("measure", *meas)
	}

	refSpan := rt.StartSpan("qporder/reformulate")
	buckets, err := reformulate.BuildBuckets(q, dom.Catalog)
	if err != nil {
		return err
	}
	pd := reformulate.NewPlanDomain(buckets, dom.Catalog)
	refSpan.End()
	if !*plansOnly {
		fmt.Printf("plan space: %d candidate plans\n", pd.Space.Size())
	}

	m, err := buildMeasure(pd, *meas, *bigN)
	if err != nil {
		return err
	}
	o, err := buildOrderer(pd, m, *algo)
	if err != nil {
		return err
	}
	core.Instrument(o, reg)
	core.SetTrace(o, rt)

	var engine *execsim.Engine
	answers := execsim.NewAnswerSet()
	if *execute {
		engine, err = simulatedEngine(dom, *seed)
		if err != nil {
			return err
		}
		engine.Instrument(reg)
	}
	var cal *obs.Calibration
	if *calib {
		if engine == nil {
			fmt.Fprintln(os.Stderr, "qporder: -calibration needs -execute for ground truth; ignoring")
		} else {
			cal = obs.NewCalibration(obs.CalibConfig{})
			engine.SetCalibration(cal)
		}
	}

	produced := 0
	for produced < *k {
		ordSpan := rt.StartSpan("qporder/order")
		plan, pq, utility, ok, err := pd.SoundNext(o)
		ordSpan.End()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		produced++
		if *plansOnly {
			fmt.Println(pq)
		} else {
			fmt.Printf("#%-3d u=%-12.6g %-20s %s\n", produced, utility, pd.FormatPlan(plan), pq)
		}
		var pp *physopt.Plan
		if *physical {
			cached := func(string) bool { return false }
			pp, err = physopt.Optimize(pq, dom.Catalog, physopt.Params{N: *bigN, CachedScan: cached})
			if err != nil {
				return err
			}
			fmt.Print(indent(pp.String(), "     "))
		}
		if engine != nil {
			costBefore := engine.Cost
			execStart := time.Now()
			execSpan := rt.StartSpan("qporder/execute")
			var out []schema.Atom
			if pp != nil {
				out, err = engine.ExecutePhysical(pp)
			} else {
				out, err = engine.ExecutePlan(pq)
			}
			execSpan.End()
			execWall := time.Since(execStart)
			if err != nil {
				return err
			}
			fresh := answers.Add(out)
			rt.AnnotatePlan(plan.Key(), fresh, int64(execWall))
			if cal != nil {
				est, act := obs.PairPlanEstimate(utility, fresh, engine.Cost-costBefore)
				cal.ObservePlan(*meas+"/"+*algo, est, act, fresh, engine.Cost-costBefore, execWall)
			}
			fmt.Printf("     +%d answers (total %d), cumulative cost %.1f\n",
				fresh, answers.Len(), engine.Cost)
		}
	}
	if !*plansOnly {
		if produced == 0 {
			fmt.Println("no sound plans")
		}
		fmt.Printf("plans evaluated: %d\n", o.Context().Evals())
	}
	if engine != nil {
		fmt.Printf("\nanswers (%d):\n%s", answers.Len(), answers)
	}
	if cal != nil {
		fmt.Println("--- calibration ---")
		cs := cal.Snapshot()
		if cs.Empty() {
			fmt.Println("no observations (no plans executed)")
		} else if err := cs.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *explain {
		fmt.Println("--- explain (per emitted plan; deltas since the previous plan) ---")
		for _, p := range rt.Plans() {
			fmt.Printf("#%-3d u=%-12.6g dom_won=%-4d dom_lost=%-4d refinements=%-4d splits=%-4d evals=%-5d %s\n",
				p.Index+1, p.Utility, p.DomWon, p.DomLost, p.Refinements, p.Splits, p.Evals, p.Plan)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rt); err != nil {
			return err
		}
	}
	if reg != nil {
		fmt.Fprintln(os.Stderr, "--- stats ---")
		if err := reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace appends the finished trace as one NDJSON line, the format
// qpserved -trace-out uses and qptrace ingests.
func writeTrace(path string, rt *obs.Trace) error {
	snap := rt.Finish()
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(b, '\n'))
	return err
}

func buildMeasure(pd *reformulate.PlanDomain, name string, n float64) (measure.Measure, error) {
	switch name {
	case "linear":
		return costmodel.NewLinearCost(pd.Entries), nil
	case "chain":
		return costmodel.NewChainCost(pd.Entries, costmodel.Params{N: n}), nil
	case "chain-fail":
		return costmodel.NewChainCost(pd.Entries, costmodel.Params{N: n, Failure: true}), nil
	case "chain-fail-caching":
		return costmodel.NewChainCost(pd.Entries, costmodel.Params{N: n, Failure: true, Caching: true}), nil
	case "monetary":
		return costmodel.NewMonetaryPerTuple(pd.Entries, costmodel.Params{N: n}), nil
	case "monetary-caching":
		return costmodel.NewMonetaryPerTuple(pd.Entries, costmodel.Params{N: n, Caching: true}), nil
	default:
		return nil, fmt.Errorf("unknown measure %q", name)
	}
}

func buildOrderer(pd *reformulate.PlanDomain, m measure.Measure, algo string) (core.Orderer, error) {
	spaces := []*planspace.Space{pd.Space}
	heur := abstraction.ByAccessCost(pd.Entries)
	switch algo {
	case "greedy":
		return core.NewGreedy(spaces, m)
	case "idrips":
		return core.NewIDrips(spaces, m, heur), nil
	case "streamer":
		return core.NewStreamer(spaces, m, heur)
	case "pi":
		return core.NewPI(spaces, m), nil
	case "exhaustive":
		return core.NewExhaustive(spaces, m), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

// simulatedEngine builds a world covering every relation mentioned by the
// source descriptions and derives incomplete source contents.
func simulatedEngine(dom *domfile.Domain, seed int64) (*execsim.Engine, error) {
	arity := make(map[string]int)
	for _, src := range dom.Catalog.Sources() {
		for _, a := range src.Def.Body {
			if prev, ok := arity[a.Pred]; ok && prev != a.Arity() {
				return nil, fmt.Errorf("relation %s used with arities %d and %d", a.Pred, prev, a.Arity())
			}
			arity[a.Pred] = a.Arity()
		}
	}
	var rels []execsim.RelationSpec
	for name, ar := range arity {
		rels = append(rels, execsim.RelationSpec{Name: name, Arity: ar})
	}
	world := execsim.GenerateWorld(execsim.WorldConfig{
		Relations:         rels,
		TuplesPerRelation: 100,
		DomainSize:        15,
		Seed:              seed,
	})
	store := execsim.PopulateSources(dom.Catalog, world, 0.8, seed+1)
	eng := execsim.NewEngine(dom.Catalog, store)
	eng.EnableFailures(seed + 2)
	return eng, nil
}
