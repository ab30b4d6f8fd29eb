package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	"qporder/internal/costmodel"
	"qporder/internal/execsim"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/workload"
)

// The mediate workload's shape, as in perfbench/mediate.go.
const (
	mediateWorlds       = 256
	mediateBucket       = 12
	mediateK            = 5
	mediateTuples       = 60
	mediateConstant     = 15
	mediateCompleteness = 0.6
	mediatePhysN        = 50000
	workloadN           = 50000
)

type mediateKind struct {
	name     string
	measure  func(*lav.Catalog) measure.Measure
	algo     mediator.Algorithm
	caching  bool
	physical bool
	par      int
}

func chainMeasure(c *lav.Catalog) measure.Measure {
	return costmodel.NewChainCost(c, costmodel.Params{N: workloadN})
}

var mediateKinds = []mediateKind{
	{name: "chain/streamer", measure: chainMeasure, algo: mediator.Streamer},
	{name: "chain-fail-caching/idrips", measure: func(c *lav.Catalog) measure.Measure {
		return costmodel.NewChainCost(c, costmodel.Params{N: workloadN, Failure: true, Caching: true})
	}, algo: mediator.IDrips, caching: true},
	{name: "linear/greedy/physical", measure: func(c *lav.Catalog) measure.Measure {
		return costmodel.NewLinearCost(c)
	}, algo: mediator.Greedy, physical: true},
	{name: "chain/streamer/pipelined", measure: chainMeasure, algo: mediator.Streamer, par: 2},
}

// mediateCounts is the work of one mediate replay.
type mediateCounts struct {
	sessions, accesses, cacheHits, failedAttempts int64
	cost                                          float64
	digest                                        uint64
}

// mediateWorld is one generated catalog and its sources' contents.
type mediateWorld struct {
	d     *workload.Domain
	store execsim.DB
}

// replayMediate runs sessions 0..n-1 of perfbench's mediate workload for
// seed, summing each session engine's accounting and digesting every
// executed plan's key and new answers in the order they were emitted.
func replayMediate(seed int64, n int) (mediateCounts, error) {
	// perfbench draws each world's three seeds in turn, so the first
	// worlds are the same however many of them a replay needs.
	rng := rand.New(rand.NewSource(seed))
	worlds := make([]mediateWorld, min(mediateWorlds, (n+len(mediateKinds)-1)/len(mediateKinds)))
	for i := range worlds {
		d := workload.Generate(workload.Config{BucketSize: mediateBucket, N: workloadN, Seed: rng.Int63()})
		rels := make([]execsim.RelationSpec, len(d.Query.Body))
		for j, a := range d.Query.Body {
			rels[j] = execsim.RelationSpec{Name: a.Pred, Arity: a.Arity()}
		}
		world := execsim.GenerateWorld(execsim.WorldConfig{
			Relations:         rels,
			TuplesPerRelation: mediateTuples,
			DomainSize:        mediateConstant,
			Seed:              rng.Int63(),
		})
		worlds[i] = mediateWorld{d: d, store: execsim.PopulateSources(d.Catalog, world, mediateCompleteness, rng.Int63())}
	}
	var c mediateCounts
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		kind := mediateKinds[i%len(mediateKinds)]
		mw := worlds[(i/len(mediateKinds))%len(worlds)]
		sys, err := mediator.New(mediator.Config{
			Catalog:     mw.d.Catalog,
			Query:       mw.d.Query,
			Measure:     kind.measure,
			Algorithm:   kind.algo,
			Physical:    kind.physical,
			PhysN:       mediatePhysN,
			Parallelism: kind.par,
			OnPlan: func(e mediator.PlanEvent) {
				fmt.Fprintf(h, "plan %s %d\n", e.Key, len(e.NewAnswers))
				for _, a := range e.NewAnswers {
					io.WriteString(h, a.String()+"\n")
				}
			},
		})
		if err != nil {
			return c, err
		}
		eng := execsim.NewEngine(mw.d.Catalog, mw.store)
		if kind.caching {
			eng.Caching = true
			eng.EnableFailures(seed ^ int64(i))
		}
		res, err := sys.RunContext(context.Background(), eng, mediator.Budget{MaxPlans: mediateK})
		if err != nil {
			return c, fmt.Errorf("seed %d session %d (%s): %w", seed, i, kind.name, err)
		}
		if len(res.Executed) != mediateK {
			return c, fmt.Errorf("seed %d session %d (%s): executed %d of %d plans", seed, i, kind.name, len(res.Executed), mediateK)
		}
		c.sessions++
		c.accesses += int64(eng.Accesses)
		c.cacheHits += int64(eng.CacheHits)
		c.failedAttempts += int64(eng.FailedAttempts)
		c.cost += eng.Cost
	}
	c.digest = h.Sum64()
	return c, nil
}
