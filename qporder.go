// Package qporder reproduces "Efficiently Ordering Query Plans for Data
// Integration" (Doan & Halevy, ICDE 2002): a data-integration mediator
// substrate (LAV source descriptions, conjunctive queries, the bucket
// algorithm, a MiniCon-style reformulator, containment-based soundness
// testing, and a simulated execution engine) together with the paper's
// plan-ordering algorithms — Greedy, iDrips, Streamer — and the PI and
// Exhaustive baselines.
//
// The package is a facade: it re-exports the library's public surface so
// applications depend on a single import. The underlying packages live in
// internal/ and are documented individually.
//
// # Quick start
//
//	cat := qporder.NewCatalog()
//	def := qporder.MustParseQuery("V1(A, M) :- play-in(A, M)")
//	cat.MustAdd("V1", def, qporder.Stats{Tuples: 100, TransmitCost: 1, Overhead: 10})
//	// ... add more sources ...
//	q := qporder.MustParseQuery("Q(M, R) :- play-in(ford, M), review-of(R, M)")
//	buckets, _ := qporder.BuildBuckets(q, cat)
//	pd := qporder.NewPlanDomain(buckets, cat)
//	m := qporder.NewLinearCost(pd.Entries)
//	o, _ := qporder.NewGreedy([]*qporder.Space{pd.Space}, m)
//	for {
//	    plan, pq, utility, ok, _ := pd.SoundNext(o)
//	    if !ok { break }
//	    _ = plan; _ = pq; _ = utility // optimize & execute pq
//	}
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package qporder

import (
	"qporder/internal/abstraction"
	"qporder/internal/bitset"
	"qporder/internal/containment"
	"qporder/internal/core"
	"qporder/internal/costmodel"
	"qporder/internal/coverage"
	"qporder/internal/execsim"
	"qporder/internal/interval"
	"qporder/internal/lav"
	"qporder/internal/measure"
	"qporder/internal/mediator"
	"qporder/internal/obs"
	"qporder/internal/physopt"
	"qporder/internal/planspace"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
	"qporder/internal/workload"
)

// Schema and query model.
type (
	// Term is a variable or constant in an atom.
	Term = schema.Term
	// Atom is a predicate applied to terms.
	Atom = schema.Atom
	// Query is a conjunctive query or view definition.
	Query = schema.Query
	// Subst maps variables to terms.
	Subst = schema.Subst
)

// Source catalog (LAV).
type (
	// Catalog registers the data sources of a domain.
	Catalog = lav.Catalog
	// Source is one data source with description and statistics.
	Source = lav.Source
	// SourceID identifies a source within a catalog.
	SourceID = lav.SourceID
	// Stats holds the per-source cost/coverage statistics.
	Stats = lav.Stats
)

// Plans and plan spaces.
type (
	// Plan is a (possibly abstract) query plan.
	Plan = planspace.Plan
	// Space is a plan space: the Cartesian product of buckets.
	Space = planspace.Space
	// AbstractionNode is an abstract source (a group of similar sources).
	AbstractionNode = abstraction.Node
	// Heuristic orders bucket sources so similar ones are grouped.
	Heuristic = abstraction.Heuristic
)

// Utility measures.
type (
	// Measure is a utility measure over plans.
	Measure = measure.Measure
	// MeasureContext evaluates plans given an executed prefix.
	MeasureContext = measure.Context
	// Interval is a utility interval for abstract plans.
	Interval = interval.Interval
	// CoverageModel maps sources to covered answer subsets.
	CoverageModel = coverage.Model
	// BitSet is the dense bitset backing coverage sets.
	BitSet = bitset.Set
	// CostParams configures the cost measures.
	CostParams = costmodel.Params
	// WeightedComponent pairs a measure with a weight.
	WeightedComponent = costmodel.Component
)

// Ordering algorithms.
type (
	// Orderer produces plans in decreasing conditional utility.
	Orderer = core.Orderer
	// Greedy is the Section 4 algorithm for fully monotonic measures.
	Greedy = core.Greedy
	// IDrips is the iterated abstraction-based orderer.
	IDrips = core.IDrips
	// Streamer is the dominance-graph orderer of Figure 5.
	Streamer = core.Streamer
	// PI is the independence-aware brute-force baseline.
	PI = core.PI
	// Exhaustive is the naive reference orderer.
	Exhaustive = core.Exhaustive
)

// Observability.
type (
	// ObsRegistry aggregates counters, gauges, histograms, and spans; a
	// nil registry disables all instrumentation.
	ObsRegistry = obs.Registry
	// ObsCalibration accumulates estimate-vs-actual pairs into q-error,
	// bias, and drift series; nil disables calibration entirely.
	ObsCalibration = obs.Calibration
	// ObsCalibrationSnapshot is a point-in-time calibration report.
	ObsCalibrationSnapshot = obs.CalibrationSnapshot
	// ObsCalibConfig tunes the drift detector; the zero value gets
	// defaults (alpha 0.3, drift factor 4, 3-sample minimum).
	ObsCalibConfig = obs.CalibConfig
)

// Reformulation.
type (
	// Buckets is the bucket algorithm's output.
	Buckets = reformulate.Buckets
	// BucketEntry is one way a source answers one subgoal.
	BucketEntry = reformulate.Entry
	// PlanDomain bridges buckets and ordering.
	PlanDomain = reformulate.PlanDomain
	// MCD is a MiniCon description covering a set of subgoals.
	MCD = reformulate.MCD
	// GeneralizedBuckets groups MCDs by covered subgoal set.
	GeneralizedBuckets = reformulate.GeneralizedBuckets
	// MiniConDomain bridges generalized buckets and ordering.
	MiniConDomain = reformulate.MiniConDomain
	// InverseRule is an inverted source description (Section 7).
	InverseRule = reformulate.InverseRule
)

// Physical optimization.
type (
	// PhysicalPlan is an optimized physical execution plan.
	PhysicalPlan = physopt.Plan
	// PhysicalStep is one operation of a physical plan.
	PhysicalStep = physopt.Step
	// AccessMethod selects bind-join vs full scan.
	AccessMethod = physopt.Method
	// PhysOptParams configures the optimizer.
	PhysOptParams = physopt.Params
)

// The physical access methods.
const (
	// MethodBind pushes bindings into the source (semijoin).
	MethodBind = physopt.Bind
	// MethodScan fetches the full relation and joins locally.
	MethodScan = physopt.Scan
)

// Execution simulator.
type (
	// DB maps relation names to ground tuples.
	DB = execsim.DB
	// Engine executes plans over source contents with cost accounting.
	Engine = execsim.Engine
	// AnswerSet accumulates the union of plan outputs.
	AnswerSet = execsim.AnswerSet
	// WorldConfig parameterizes synthetic world generation.
	WorldConfig = execsim.WorldConfig
	// RelationSpec describes a schema relation for world generation.
	RelationSpec = execsim.RelationSpec
)

// Synthetic workloads.
type (
	// WorkloadConfig parameterizes synthetic experiment domains.
	WorkloadConfig = workload.Config
	// Domain is a generated experiment domain.
	Domain = workload.Domain
)

// Mediator: the assembled data-integration system.
type (
	// Mediator is a configured end-to-end system for one query.
	Mediator = mediator.System
	// MediatorConfig assembles a mediator.
	MediatorConfig = mediator.Config
	// MediatorBudget bounds a mediator run.
	MediatorBudget = mediator.Budget
	// MediatorResult summarizes a mediator run.
	MediatorResult = mediator.Result
	// StopReason reports why a mediator run ended.
	StopReason = mediator.StopReason
)

// Mediator algorithm and reformulator selectors, and stop reasons.
const (
	AlgoAuto        = mediator.Auto
	AlgoGreedy      = mediator.Greedy
	AlgoIDrips      = mediator.IDrips
	AlgoStreamer    = mediator.Streamer
	AlgoPI          = mediator.PI
	AlgoExhaustive  = mediator.Exhaustive
	ViaBuckets      = mediator.Buckets
	ViaInverseRules = mediator.InverseRules
	ViaMiniCon      = mediator.MiniCon
	StopExhausted   = mediator.StopExhausted
	StopMaxPlans    = mediator.StopMaxPlans
	StopMaxCost     = mediator.StopMaxCost
	StopMinAnswers  = mediator.StopMinAnswers
)

// NewMediator reformulates the query and builds the full pipeline.
var NewMediator = mediator.New

// Parsing.
var (
	// ParseQuery parses one conjunctive query in datalog syntax.
	ParseQuery = schema.ParseQuery
	// ParseProgram parses a newline-separated rule list.
	ParseProgram = schema.ParseProgram
	// MustParseQuery panics on parse errors; for tests and fixtures.
	MustParseQuery = schema.MustParseQuery
)

// Catalog construction.
var (
	// NewCatalog returns an empty source catalog.
	NewCatalog = lav.NewCatalog
)

// Containment.
var (
	// Contains reports conjunctive-query containment q1 ⊆ q2.
	Contains = containment.Contains
	// Equivalent reports mutual containment.
	Equivalent = containment.Equivalent
)

// Reformulation.
var (
	// BuildBuckets runs the bucket algorithm.
	BuildBuckets = reformulate.BuildBuckets
	// NewPlanDomain derives the ordering-facing view of buckets.
	NewPlanDomain = reformulate.NewPlanDomain
	// Expand replaces plan atoms with their source descriptions.
	Expand = reformulate.Expand
	// IsSound tests a plan query's soundness for a user query.
	IsSound = reformulate.IsSound
	// BuildMCDs forms MiniCon descriptions.
	BuildMCDs = reformulate.BuildMCDs
	// NewMiniConDomain enumerates generalized-bucket plan spaces.
	NewMiniConDomain = reformulate.NewMiniConDomain
	// InvertCatalog computes the inverse rules of every described source.
	InvertCatalog = reformulate.InvertCatalog
	// InverseBuckets groups inverse rules into buckets (Section 7).
	InverseBuckets = reformulate.InverseBuckets
	// DatalogProgram assembles the inverse-rule program for a query.
	DatalogProgram = reformulate.DatalogProgram
	// IsSkolem reports whether a term is an inversion Skolem constant.
	IsSkolem = reformulate.IsSkolem
	// Optimize chooses join order and access methods for a plan query.
	Optimize = physopt.Optimize
)

// Plan spaces.
var (
	// NewSpace builds a plan space over buckets of source IDs.
	NewSpace = planspace.NewSpace
	// NewPlan builds a plan from abstraction nodes.
	NewPlan = planspace.New
	// BuildLeaves builds shared leaf nodes for concrete enumeration.
	BuildLeaves = abstraction.BuildLeaves
	// BuildHierarchy builds per-bucket abstraction hierarchies.
	BuildHierarchy = abstraction.Build
)

// Abstraction heuristics.
var (
	// ByTuples groups sources with similar expected output sizes.
	ByTuples = abstraction.ByTuples
	// ByAccessCost groups sources with similar standalone access cost.
	ByAccessCost = abstraction.ByAccessCost
	// ByKey groups by an arbitrary numeric similarity key.
	ByKey = abstraction.ByKey
	// ByID is the uninformed (registration-order) grouping.
	ByID = abstraction.ByID
)

// Utility measures.
var (
	// NewCoverageModel returns a coverage model over a universe size.
	NewCoverageModel = coverage.NewModel
	// NewBitSet returns an empty bitset of the given capacity.
	NewBitSet = bitset.New
	// NewCoverageMeasure returns the plan-coverage measure.
	NewCoverageMeasure = coverage.NewMeasure
	// NewLinearCost returns cost measure (1) — fully monotonic.
	NewLinearCost = costmodel.NewLinearCost
	// NewChainCost returns cost measure (2) with failure/caching options.
	NewChainCost = costmodel.NewChainCost
	// NewMonetaryPerTuple returns the monetary cost-per-tuple measure.
	NewMonetaryPerTuple = costmodel.NewMonetaryPerTuple
	// NewWeighted combines measures linearly (Example 1.2).
	NewWeighted = costmodel.NewWeighted
)

// Ordering algorithms.
var (
	// NewGreedy builds the Greedy orderer (fully monotonic measures).
	NewGreedy = core.NewGreedy
	// NewIDrips builds the iterated-Drips orderer.
	NewIDrips = core.NewIDrips
	// NewStreamer builds the Streamer orderer (diminishing returns).
	NewStreamer = core.NewStreamer
	// NewPI builds the independence-aware brute-force baseline.
	NewPI = core.NewPI
	// NewExhaustive builds the naive reference orderer.
	NewExhaustive = core.NewExhaustive
	// DripsBest runs one Drips search for the current best plan.
	DripsBest = core.DripsBest
	// Take drains up to k plans from an orderer.
	Take = core.Take
	// Instrument binds an observability registry to an orderer.
	Instrument = core.Instrument
	// NewObsRegistry builds an empty observability registry.
	NewObsRegistry = obs.NewRegistry
	// NewCalibration builds an estimator-calibration accumulator.
	NewCalibration = obs.NewCalibration
	// RegisterRuntimeMetrics attaches Go runtime gauges to a registry.
	RegisterRuntimeMetrics = obs.RegisterRuntimeMetrics
)

// Execution simulation.
var (
	// NewEngine builds an execution engine over source contents.
	NewEngine = execsim.NewEngine
	// NewAnswerSet returns an empty answer accumulator.
	NewAnswerSet = execsim.NewAnswerSet
	// EvalQuery evaluates a conjunctive query on a database.
	EvalQuery = execsim.Eval
	// EvalProgram evaluates a (possibly recursive) datalog program.
	EvalProgram = execsim.EvalProgram
	// FilterAnswers keeps the atoms satisfying a predicate.
	FilterAnswers = execsim.FilterAnswers
	// GenerateWorld builds a random ground database.
	GenerateWorld = execsim.GenerateWorld
	// PopulateSources derives incomplete source contents from a world.
	PopulateSources = execsim.PopulateSources
)

// Synthetic workloads.
var (
	// GenerateWorkload builds a synthetic experiment domain.
	GenerateWorkload = workload.Generate
)
