package execsim

import (
	"fmt"
	"math/rand"

	"qporder/internal/lav"
	"qporder/internal/obs"
	"qporder/internal/physopt"
	"qporder/internal/schema"
)

// Engine executes query plans (conjunctive queries whose body atoms are
// source relations) against a store of source contents. It accounts
// access costs with the paper's parameters (overhead h per access,
// transmission cost α per returned item), optionally simulates per-access
// failures with retries, and optionally caches source-operation results.
type Engine struct {
	cat   *lav.Catalog
	store DB

	// Caching enables the source-operation cache: re-running an identical
	// access (same source, same position, same bound pattern) is free.
	Caching bool
	// OnAccess, when set, is invoked after every real source access (cache
	// hits excluded) with the source name, the number of tuples returned,
	// and the number of failed attempts before success.
	OnAccess func(source string, tuples, failedAttempts int)
	// rng drives failure simulation; nil disables failures.
	rng *rand.Rand

	cache map[accessKey][]schema.Atom
	// indexes group a source's tuples on one argument position, built
	// at first use. They belong to the engine, not the shared store, so
	// a session's indexes go with it.
	indexes map[indexKey]map[schema.Term][]schema.Atom
	// answers deduplicates one plan's head instances; it is reset and
	// reused by every execution.
	answers *AnswerSet

	// Cost is the accumulated execution cost in cost units.
	Cost float64
	// Accesses counts successful source accesses (cache hits excluded).
	Accesses int
	// CacheHits counts accesses served from the cache.
	CacheHits int
	// FailedAttempts counts access attempts lost to simulated failures.
	FailedAttempts int

	cSourceCalls *obs.Counter
	cTuples      *obs.Counter
	cCacheHits   *obs.Counter
	cFailed      *obs.Counter

	// calib, when set, receives one estimate-vs-actual observation per
	// unconstrained source access: the catalog's Tuples statistic
	// against the observed result size, with the access's failed
	// attempts. Bound accesses and cache hits are excluded —
	// their result size measures join selectivity, not source size, so
	// pairing them against Tuples would poison the series (the pairing
	// contract, DESIGN.md). Nil disables recording at zero cost.
	calib *obs.Calibration
}

// NewEngine builds an engine over source contents. The store maps source
// names (catalog names) to their tuples.
func NewEngine(cat *lav.Catalog, store DB) *Engine {
	return &Engine{cat: cat, store: store, cache: make(map[accessKey][]schema.Atom),
		indexes: make(map[indexKey]map[schema.Term][]schema.Atom), answers: NewAnswerSet()}
}

// Instrument mirrors the engine's accounting into registry counters
// (execsim.source_calls, execsim.tuples_fetched, execsim.cache_hits,
// execsim.failed_attempts). A nil registry disables the mirroring.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.cSourceCalls = reg.Counter("execsim.source_calls")
	e.cTuples = reg.Counter("execsim.tuples_fetched")
	e.cCacheHits = reg.Counter("execsim.cache_hits")
	e.cFailed = reg.Counter("execsim.failed_attempts")
}

// SetCalibration binds an estimator-calibration accumulator: every
// unconstrained source access records the Tuples estimate against the
// observed result size and its failed attempts. Nil detaches (the
// default, costing nothing).
func (e *Engine) SetCalibration(c *obs.Calibration) { e.calib = c }

// EnableFailures turns on failure simulation with the given seed; each
// access attempt to source V fails independently with V's FailureProb and
// is retried (each failed attempt still pays the access overhead).
func (e *Engine) EnableFailures(seed int64) {
	e.rng = rand.New(rand.NewSource(seed))
}

// ExecutePlan evaluates the plan query with a left-to-right nested-loop
// strategy: each body atom triggers one source operation per binding of
// the atoms before it, pushing the bound arguments into the source;
// returned tuples extend the bindings. The distinct head instances are
// returned. It is ExecutePhysical on the all-Bind schedule in body order.
func (e *Engine) ExecutePlan(pq *schema.Query) ([]schema.Atom, error) {
	steps := make([]physopt.Step, len(pq.Body))
	for i, a := range pq.Body {
		steps[i] = physopt.Step{Atom: a, Method: physopt.Bind}
	}
	return e.ExecutePhysical(&physopt.Plan{Name: pq.Name, Head: pq.Head, Steps: steps})
}

// ExecutePhysical evaluates a physical plan. Scan steps fetch the
// source's relation once, up front (binding-independent, hence shareable
// through the operation cache); Bind steps push the current bindings into
// the source, one access per binding of the steps before them.
func (e *Engine) ExecutePhysical(pp *physopt.Plan) ([]schema.Atom, error) {
	body := make([]schema.Atom, len(pp.Steps))
	scanned := make([][]schema.Atom, len(pp.Steps))
	for i, s := range pp.Steps {
		if _, ok := e.cat.ByName(s.Atom.Pred); !ok {
			return nil, fmt.Errorf("execsim: plan atom %s is not a catalog source", s.Atom)
		}
		body[i] = s.Atom
	}
	for i, s := range pp.Steps {
		if s.Method == physopt.Scan {
			scanned[i] = e.access(i, s.Atom) // unconditional work
		}
	}
	p := compile(schema.Atom{Pred: pp.Name, Args: pp.Head}, body)
	e.answers.reset()
	_ = p.run(func(i int) []schema.Atom { // emit cannot fail
		if pp.Steps[i].Method == physopt.Scan {
			return scanned[i]
		}
		return e.access(i, p.instance(&p.steps[i]))
	}, func(head schema.Atom) error { e.answers.put(head); return nil })
	return e.answers.sorted(), nil
}

// accessKey identifies a source operation for the cache: the plan
// position and the goal's value.
type accessKey struct {
	pos  int
	goal atomKey
}

// access performs one source operation: fetch the tuples of goal's source
// matching goal's bound arguments. Costs: overhead per attempt (failures
// retry), transmission cost per returned tuple. With caching on, an
// identical operation is free. goal may be scratch space: access keeps
// only its value. The rows returned hold every match in store order,
// and possibly rows that fail goal, which the caller's match step drops;
// only the matches are paid for and reported.
func (e *Engine) access(pos int, goal schema.Atom) []schema.Atom {
	var key accessKey
	if e.Caching {
		key = accessKey{pos, keyOf(goal)}
		if res, ok := e.cache[key]; ok {
			e.CacheHits++
			e.cCacheHits.Inc()
			return res
		}
	}
	src, _ := e.cat.ByName(goal.Pred)
	st := src.Stats

	// Failure simulation: retry until success, paying overhead each try.
	failed := 0
	if e.rng != nil {
		for e.rng.Float64() < st.FailureProb {
			e.Cost += st.Overhead
			e.FailedAttempts++
			e.cFailed.Inc()
			failed++
		}
	}
	e.Cost += st.Overhead

	rows, n, unbound := e.lookup(goal)
	e.Cost += st.TransmitCost * float64(n)
	e.Accesses++
	e.cSourceCalls.Inc()
	e.cTuples.Add(int64(n))
	if e.calib != nil && unbound {
		e.calib.ObserveSource(goal.Pred, st.Tuples, float64(n), failed)
	}
	if e.Caching {
		e.cache[key] = rows
	}
	if e.OnAccess != nil {
		e.OnAccess(goal.Pred, n, failed)
	}
	return rows
}

// indexKey names an index: a source's tuples of one arity grouped on
// the value at one argument position, or in a single group when pos is
// -1.
type indexKey struct {
	pred       string
	arity, pos int
}

// lookup returns goal's candidate rows, in store order: the bucket of
// its first constant in that position's index, or its whole relation
// when goal has no constant, shared and never copied. It also returns
// how many rows match goal and whether goal has no constant.
func (e *Engine) lookup(goal schema.Atom) (rows []schema.Atom, matches int, unbound bool) {
	k, val := indexKey{goal.Pred, len(goal.Args), -1}, schema.Term{}
	for j, t := range goal.Args {
		if t.Const {
			k.pos, val = j, t
			break
		}
	}
	idx, ok := e.indexes[k]
	if !ok {
		idx = make(map[schema.Term][]schema.Atom)
		for _, t := range e.store[k.pred] {
			if t.Pred == k.pred && len(t.Args) == k.arity {
				v := schema.Term{}
				if k.pos >= 0 {
					v = t.Args[k.pos]
				}
				idx[v] = append(idx[v], t)
			}
		}
		e.indexes[k] = idx
	}
	rows = idx[val]
	for _, t := range rows {
		if groundMatch(goal, t) {
			matches++
		}
	}
	return rows, matches, k.pos < 0
}
