// Command qpworkcount replays a fixed number of the sessions that one of
// perfbench's workloads runs and prints, per seed, the work they did and
// a digest of what they emitted. Two revisions that print the same lines
// emitted the same streams with the same work, whatever their speed;
// perfbench's traced run cannot show that, because it replays as many
// sessions as the build completed in the first third of its timed run.
//
// Usage:
//
//	qpworkcount -workload order -seeds 1,7 -sessions 1024
//	qpworkcount -workload mediate -seeds 1,7 -sessions 1024
//
// The order sessions (the default) are perfbench's order workload: 256
// domains generated from the seed, kinds coverage × {Streamer, iDrips,
// PI} and chain-fail-caching × iDrips taken round-robin, a fresh plan
// space per session, the first 10 plans. Each line sums measure
// evaluations, dominance tests and refinements, and digests every
// emitted (plan key, utility). perfbench's warm-up is left out; it fills
// only the coverage overlap cache.
//
// The mediate sessions are perfbench's mediate workload: 256 generated
// catalogs with their worlds and source contents, its four kinds taken
// round-robin, 5 executed plans each. Each line sums the engines'
// accesses, cache hits, failed attempts and cost, and digests every
// executed plan's key and its new answers, rendered in emitted order.
//
// To count another revision, copy this directory into a checkout of it
// (git archive REV | tar -x -C DIR) and run it there;
// scripts/workcount_parity.sh does both and compares.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"qporder/internal/abstraction"
	"qporder/internal/core"
	"qporder/internal/costmodel"
	"qporder/internal/coverage"
	"qporder/internal/measure"
	"qporder/internal/obs"
	"qporder/internal/planspace"
	"qporder/internal/workload"
)

// The order workload's shape, as in perfbench/order.go.
const (
	domains = 256
	bucket  = 20
	k       = 10
)

var kinds = []struct{ measure, algo string }{
	{"coverage", "streamer"},
	{"coverage", "idrips"},
	{"coverage", "pi"},
	{"chain-fail-caching", "idrips"},
}

// counts is the work of one replay.
type counts struct {
	sessions, evals, dominanceTests, refinements int64
	digest                                       uint64
}

func main() {
	workload := flag.String("workload", "order", "perfbench workload to replay: order or mediate")
	seeds := flag.String("seeds", "1,7", "comma-separated perfbench seeds")
	sessions := flag.Int("sessions", 1024, "sessions replayed per seed")
	flag.Parse()
	if *workload != "order" && *workload != "mediate" {
		fmt.Fprintf(os.Stderr, "qpworkcount: unknown workload %q (want order or mediate)\n", *workload)
		os.Exit(2)
	}
	for _, f := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpworkcount: bad seed:", err)
			os.Exit(2)
		}
		if *workload == "mediate" {
			m, err := replayMediate(seed, *sessions)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qpworkcount:", err)
				os.Exit(1)
			}
			fmt.Printf("workload=mediate seed=%d sessions=%d accesses=%d cache_hits=%d failed_attempts=%d cost=%s stream_digest=%016x\n",
				seed, m.sessions, m.accesses, m.cacheHits, m.failedAttempts,
				strconv.FormatFloat(m.cost, 'g', -1, 64), m.digest)
			continue
		}
		c, err := replay(seed, *sessions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpworkcount:", err)
			os.Exit(1)
		}
		fmt.Printf("seed=%d sessions=%d evals=%d dominance_tests=%d refinements=%d stream_digest=%016x\n",
			seed, c.sessions, c.evals, c.dominanceTests, c.refinements, c.digest)
	}
}

// replay runs sessions 0..n-1 of perfbench's order workload for seed.
func replay(seed int64, n int) (counts, error) {
	// perfbench draws each domain's seed in turn, so the first domains
	// are the same however many of them a replay needs.
	rng := rand.New(rand.NewSource(seed))
	doms := make([]*workload.Domain, min(domains, (n+len(kinds)-1)/len(kinds)))
	for i := range doms {
		doms[i] = workload.Generate(workload.Config{BucketSize: bucket, Seed: rng.Int63()})
	}
	var c counts
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		kind := kinds[i%len(kinds)]
		d := doms[(i/len(kinds))%len(doms)]
		var m measure.Measure = coverage.NewMeasure(d.Coverage)
		heur := abstraction.ByKey("cov-sim", d.SimilarityKey)
		if kind.measure != "coverage" {
			m = costmodel.NewChainCost(d.Catalog, costmodel.Params{N: d.Params.N, Failure: true, Caching: true})
			heur = abstraction.ByAccessCost(d.Catalog)
		}
		o, err := newOrderer([]*planspace.Space{planspace.NewSpace(d.Buckets)}, m, heur, kind.algo)
		if err != nil {
			return c, err
		}
		reg := obs.NewRegistry()
		core.Instrument(o, reg)
		plans, utils := core.Take(o, k)
		if len(plans) != k {
			return c, fmt.Errorf("seed %d session %d (%s/%s): %d of %d plans", seed, i, kind.measure, kind.algo, len(plans), k)
		}
		for j, p := range plans {
			fmt.Fprintf(h, "%s %v\n", p.Key(), utils[j])
		}
		c.sessions++
		c.evals += int64(o.Context().Evals())
		c.dominanceTests += reg.Counter("core." + kind.algo + ".dominance_tests").Value()
		c.refinements += reg.Counter("core." + kind.algo + ".refinements").Value()
	}
	c.digest = h.Sum64()
	return c, nil
}

func newOrderer(spaces []*planspace.Space, m measure.Measure, heur abstraction.Heuristic, algo string) (core.Orderer, error) {
	switch algo {
	case "streamer":
		return core.NewStreamer(spaces, m, heur)
	case "idrips":
		return core.NewIDrips(spaces, m, heur), nil
	}
	return core.NewPI(spaces, m), nil
}
