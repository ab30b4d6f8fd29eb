// Budget: the assembled mediator with resource limits.
//
// Section 1's motivation: "query execution can be aborted as soon as the
// user has found a satisfactory answer, or when allotted resource limits
// have been reached" — and because ordering is incremental, "the rest of
// the plans can be found while the execution has begun". This example
// builds the full pipeline with qporder.NewMediator (auto-selected
// algorithm, soundness filtering, physical optimization, pipelined
// ordering) and runs the same query under three different budgets.
package main

import (
	"fmt"
	"log"

	"qporder"
)

func main() {
	cat := qporder.NewCatalog()
	add := func(def string, tuples, transmit, overhead, fail float64) {
		q := qporder.MustParseQuery(def)
		cat.MustAdd(q.Name, q, qporder.Stats{
			Tuples: tuples, TransmitCost: transmit, Overhead: overhead, FailureProb: fail,
		})
	}
	// A small bibliography mediator: papers and their citation counts.
	add("Pub1(P, A) :- authored(A, P), db-paper(P)", 300, 1.0, 10, 0.05)
	add("Pub2(P, A) :- authored(A, P)", 900, 2.0, 25, 0.10)
	add("Pub3(P, A) :- authored(A, P), db-paper(P)", 150, 0.5, 8, 0.02)
	add("Cite1(P, N) :- cited(P, N)", 500, 1.0, 12, 0.05)
	add("Cite2(P, N) :- cited(P, N)", 200, 0.7, 6, 0.20)

	query := qporder.MustParseQuery("Q(P, N) :- authored(halevy, P), cited(P, N)")

	world := qporder.GenerateWorld(qporder.WorldConfig{
		Relations: []qporder.RelationSpec{
			{Name: "authored", Arity: 2}, {Name: "cited", Arity: 2}, {Name: "db-paper", Arity: 1},
		},
		TuplesPerRelation: 80,
		DomainSize:        20,
		Seed:              3,
	})
	for _, p := range []string{"c2", "c5", "c9"} {
		world.Add("authored", "halevy", p)
		world.Add("db-paper", p)
	}

	budgets := []struct {
		label  string
		budget qporder.MediatorBudget
	}{
		{"first answer only", qporder.MediatorBudget{MinAnswers: 1}},
		{"cost-capped at 500", qporder.MediatorBudget{MaxCost: 500}},
		{"everything", qporder.MediatorBudget{}},
	}
	for _, b := range budgets {
		sys, err := qporder.NewMediator(qporder.MediatorConfig{
			Catalog: cat,
			Query:   query,
			Measure: func(entries *qporder.Catalog) qporder.Measure {
				return qporder.NewChainCost(entries, qporder.CostParams{N: 20000, Failure: true})
			},
			Algorithm:   qporder.AlgoAuto, // → Streamer (diminishing returns holds)
			Physical:    true,
			PhysN:       20000,
			Parallelism: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		store := qporder.PopulateSources(cat, world, 0.85, 4)
		engine := qporder.NewEngine(cat, store)
		engine.EnableFailures(9)

		res, err := sys.Run(engine, b.budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s stopped=%-14s plans=%d answers=%d cost=%.0f evals=%d\n",
			b.label, res.Stopped, len(res.Executed), res.Answers.Len(), res.Cost, res.Evals)
		for i, pq := range res.Executed {
			fmt.Printf("    #%d u=%-10.4g +%-3d %s\n", i+1, res.Utilities[i], res.NewAnswers[i], pq)
		}
	}
}
