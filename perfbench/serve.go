package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"qporder/internal/execsim"
	"qporder/internal/obs"
	"qporder/internal/reformulate"
	"qporder/internal/schema"
	"qporder/internal/server"
	"qporder/internal/workload"
)

// The serve workload drives an in-process qpserved (server.New on a
// loopback listener) with serveClients closed-loop clients speaking
// HTTP/NDJSON. Each round sends the hot query shapes — renamed and with
// shuffled atoms, so only canonicalization makes them hit the session
// cache — and one query of the tail: constant-bound queries whose
// canonical keys are all distinct and far outnumber the cache, so each
// one misses and runs the reformulation on the first-result path.
const (
	serveClients = 2
	serveBucket  = 20
	serveK       = 5
	// serveCache is the daemon's session-cache capacity.
	serveCache = 16
	// serveWarmRounds are the sequential rounds of the warm-up.
	serveWarmRounds = 8
	// The daemon's simulated world, fixed by internal/server: tuples per
	// relation and distinct constants per attribute. The checks rebuild
	// the same world to evaluate Q(world).
	serveWorldTuples   = 100
	serveWorldConstant = 15
	serveCompleteness  = 0.8
)

// serveHot are the hot shapes, one session kind each.
var serveHot = []string{
	"Q(X, Z) :- rel0(X, Y), rel1(Y, Z)",
	"Q(X, Z) :- rel1(X, Y), rel2(Y, Z)",
	"Q(X, Z) :- rel2(X, Y), rel0(Y, Z)",
	"Q(X, Z) :- rel1(X, Y), rel0(Y, Z)",
}

// serveQuery is one request of the sequence.
type serveQuery struct {
	id    string        // the benchmark's own identity of the canonical query
	text  string        // what is sent
	query *schema.Query // the query the text parses to
}

// serveOutput is what one serve session streamed.
type serveOutput struct {
	keys    []string // plan_key of every plan event
	answers digest
	hit     bool
	bytes   int
	tail    []string // the answers of a tail session, checked after the run
}

type serveWorkload struct {
	seed       int64
	serverSeed int64
	d          *workload.Domain
	world      execsim.DB
	hot        []*schema.Query
	hotWant    []map[string]bool // Q(world) of each hot shape, by answerArgs
	tail       []*schema.Query
	httpSrv    *http.Server
	served     chan struct{}
	url        string
	client     *http.Client
	mu         sync.Mutex
	seen       map[string]bool
	out        []serveOutput
	warmSlots  int
}

func (w *serveWorkload) kinds() []string {
	names := make([]string, 0, len(serveHot)+1)
	for i := range serveHot {
		names = append(names, fmt.Sprintf("hot%d", i))
	}
	return append(names, "tail")
}

func (w *serveWorkload) clients() int { return serveClients }
func (w *serveWorkload) discard()     { w.out, w.seen = nil, map[string]bool{} }

func (w *serveWorkload) setup(seed int64) error {
	w.close()
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.d = workload.Generate(workload.Config{BucketSize: serveBucket, N: workloadN, Seed: rng.Int63()})
	w.serverSeed = 1 + rng.Int63n(1<<40)
	w.world = serveWorld(w.d, w.serverSeed)
	w.hot, w.hotWant = nil, nil
	for _, src := range serveHot {
		q := schema.MustParseQuery(src)
		w.hot = append(w.hot, q)
		want := map[string]bool{}
		for k := range evalQuery(q, w.world) {
			want[strings.ReplaceAll(k, "\x00", ", ")] = true
		}
		w.hotWant = append(w.hotWant, want)
	}
	w.tail = tailQueries(rng)

	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Catalog:       w.d.Catalog,
		Seed:          w.serverSeed,
		N:             workloadN,
		MaxInflight:   serveClients,
		CacheSessions: serveCache,
		Reg:           reg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.httpSrv.Serve(ln)
	}()
	w.url = "http://" + ln.Addr().String() + "/v1/query"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	w.seen = map[string]bool{}
	w.out = nil

	// Warm-up: sequential rounds see every hot shape for the first time
	// (each must miss), fill the session cache and open the connections.
	nk := len(w.kinds())
	w.warmSlots = serveWarmRounds * nk
	for slot := 0; slot < w.warmSlots; slot++ {
		if _, _, err := w.request(slot); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// serveWorld rebuilds the daemon's simulated world: the relations the
// source descriptions mention, in name order, generated at the daemon's
// seed.
func serveWorld(d *workload.Domain, seed int64) execsim.DB {
	arity := map[string]int{}
	for _, src := range d.Catalog.Sources() {
		for _, a := range src.Def.Body {
			arity[a.Pred] = a.Arity()
		}
	}
	rels := make([]execsim.RelationSpec, 0, len(arity))
	for name, ar := range arity {
		rels = append(rels, execsim.RelationSpec{Name: name, Arity: ar})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })
	return execsim.GenerateWorld(execsim.WorldConfig{
		Relations:         rels,
		TuplesPerRelation: serveWorldTuples,
		DomainSize:        serveWorldConstant,
		Seed:              seed,
	})
}

// tailQueries returns every constant-bound tail query in a seeded order:
// Q(head) :- rel_a(c, Y), rel_b(Y, Z), rel_c(Z, W) for every relation
// triple, constant and ordered head of two or three of Y, Z, W. No two
// are equal up to renaming and atom order.
func tailQueries(rng *rand.Rand) []*schema.Query {
	heads := [][]string{
		{"Y", "Z"}, {"Z", "Y"}, {"Y", "W"}, {"W", "Y"}, {"Z", "W"}, {"W", "Z"},
		{"Y", "Z", "W"}, {"Y", "W", "Z"}, {"Z", "Y", "W"}, {"Z", "W", "Y"}, {"W", "Y", "Z"}, {"W", "Z", "Y"},
	}
	var out []*schema.Query
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 3; c++ {
				for k := 0; k < serveWorldConstant; k++ {
					for _, h := range heads {
						head := make([]schema.Term, len(h))
						for i, v := range h {
							head[i] = schema.Var(v)
						}
						out = append(out, &schema.Query{Name: "Q", Head: head, Body: []schema.Atom{
							schema.NewAtom(fmt.Sprintf("rel%d", a), schema.Const(fmt.Sprintf("c%d", k)), schema.Var("Y")),
							schema.NewAtom(fmt.Sprintf("rel%d", b), schema.Var("Y"), schema.Var("Z")),
							schema.NewAtom(fmt.Sprintf("rel%d", c), schema.Var("Z"), schema.Var("W")),
						}})
					}
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// queryAt returns the request of a sequence slot: the warm-up takes the
// first slots and timed session i takes slot warmSlots+i. A hot query is
// its shape with variables renamed and atoms shuffled by a slot-seeded
// generator.
func (w *serveWorkload) queryAt(slot int) (serveQuery, error) {
	nk := len(w.kinds())
	kind := slot % nk
	if kind < len(w.hot) {
		// The daemon caches the reformulation of the first variant it
		// sees, and the plans of every later hit keep that variant's atom
		// order, which changes what execution costs. The warm-up's first
		// round therefore sends each shape as written.
		q := w.hot[kind]
		if slot >= nk {
			q = disguise(q, rand.New(rand.NewSource(w.seed*1_000_003+int64(slot))))
		}
		return serveQuery{id: fmt.Sprintf("hot%d", kind), text: q.String(), query: q}, nil
	}
	j := slot / nk
	if j >= len(w.tail) {
		return serveQuery{}, fmt.Errorf("tail exhausted: %d distinct queries", len(w.tail))
	}
	return serveQuery{id: fmt.Sprintf("tail%d", j), text: w.tail[j].String(), query: w.tail[j]}, nil
}

// disguise renames every variable and shuffles the body atoms.
func disguise(q *schema.Query, rng *rand.Rand) *schema.Query {
	out := q.Clone()
	rename := map[string]string{}
	for _, v := range q.Vars() {
		rename[v.Name] = fmt.Sprintf("V%d_%d", rng.Intn(1000), len(rename))
	}
	sub := func(ts []schema.Term) {
		for i, t := range ts {
			if t.IsVar() {
				ts[i] = schema.Var(rename[t.Name])
			}
		}
	}
	sub(out.Head)
	for i := range out.Body {
		sub(out.Body[i].Args)
	}
	rng.Shuffle(len(out.Body), func(i, j int) { out.Body[i], out.Body[j] = out.Body[j], out.Body[i] })
	return out
}

// answerArgs returns the argument list of a rendered answer atom,
// "c1, c5" for "P(c1, c5)": the checks compare values, not the plan
// head's predicate name.
func answerArgs(a string) string {
	i := strings.IndexByte(a, '(')
	if i < 0 || !strings.HasSuffix(a, ")") {
		return a
	}
	return a[i+1 : len(a)-1]
}

type requestBody struct {
	Query     string `json:"query"`
	K         int    `json:"k"`
	Measure   string `json:"measure"`
	Algorithm string `json:"algorithm"`
}

func (w *serveWorkload) session(i int) (sessionTiming, error) {
	t, out, err := w.request(w.warmSlots + i)
	w.mu.Lock()
	for len(w.out) <= i {
		w.out = append(w.out, serveOutput{})
	}
	w.out[i] = out
	w.mu.Unlock()
	return t, err
}

// request sends one query and reads its NDJSON stream, checking on the
// fly that it runs session → (plan, answers)… → done with serveK plans
// unless exhausted, that a query the benchmark had not sent before
// reported a cache miss, and that a hot shape's answers lie in Q(world).
func (w *serveWorkload) request(slot int) (sessionTiming, serveOutput, error) {
	var t sessionTiming
	var out serveOutput
	sq, err := w.queryAt(slot)
	if err != nil {
		return t, out, err
	}
	w.mu.Lock()
	firstSeen := !w.seen[sq.id]
	w.seen[sq.id] = true
	w.mu.Unlock()
	body, _ := json.Marshal(requestBody{Query: sq.text, K: serveK, Measure: "chain", Algorithm: "streamer"})

	start := time.Now()
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return t, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return t, out, fmt.Errorf("%s: status %d: %s", sq.text, resp.StatusCode, bytes.TrimSpace(msg))
	}
	kind := slot % len(w.kinds())
	var want map[string]bool
	if kind < len(w.hot) {
		want = w.hotWant[kind]
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var events []string
	var done *server.Event
	for sc.Scan() {
		line := sc.Bytes()
		out.bytes += len(line) + 1
		var e server.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return t, out, fmt.Errorf("%s: bad stream line: %w", sq.text, err)
		}
		events = append(events, e.Event)
		switch e.Event {
		case "session":
			out.hit = e.Cache == "hit"
		case "plan":
			out.keys = append(out.keys, e.PlanKey)
		case "answers":
			if t.first == 0 {
				t.first = time.Since(start)
			}
			for _, a := range e.Answers {
				out.answers.add([]string{a})
				if want != nil && !want[answerArgs(a)] {
					return t, out, fmt.Errorf("%s: answer %s is not in Q(world)", sq.text, a)
				}
			}
			if want == nil {
				out.tail = append(out.tail, e.Answers...)
			}
		case "done":
			done = &e
		}
	}
	t.total = time.Since(start)
	if err := sc.Err(); err != nil {
		return t, out, fmt.Errorf("%s: %w", sq.text, err)
	}
	if t.first == 0 {
		t.first = t.total // no answer: the first result never came
	}
	if err := checkStream(events, done, len(out.keys), serveK); err != nil {
		return t, out, fmt.Errorf("%s: %w", sq.text, err)
	}
	if firstSeen && out.hit {
		return t, out, fmt.Errorf("%s: first request of %s reported a cache hit", sq.text, sq.id)
	}
	return t, out, nil
}

// checkStream checks an NDJSON event sequence: session first, then plan
// events each optionally followed by its answers event, then done last,
// with k plans unless the plans ran out.
func checkStream(events []string, done *server.Event, plans, k int) error {
	if len(events) < 2 || events[0] != "session" || events[len(events)-1] != "done" || done == nil {
		return fmt.Errorf("stream %v does not run session → … → done", events)
	}
	for j := 1; j < len(events)-1; j++ {
		switch events[j] {
		case "plan":
		case "answers":
			if events[j-1] != "plan" {
				return fmt.Errorf("stream %v: answers event not after its plan", events)
			}
		default:
			return fmt.Errorf("stream %v: unexpected %q event", events, events[j])
		}
	}
	if done.Plans != plans {
		return fmt.Errorf("done reports %d plans, stream carried %d", done.Plans, plans)
	}
	if plans != k && (done.Stopped != "plans-exhausted" || plans > k) {
		return fmt.Errorf("%d plans of %d, stopped %q", plans, k, done.Stopped)
	}
	return nil
}

// check verifies, after the run, that every tail session's answers lie
// in Q(world), evaluated by the benchmark's own join.
func (w *serveWorkload) check() error {
	for i, out := range w.out {
		if out.tail == nil {
			continue
		}
		sq, err := w.queryAt(w.warmSlots + i)
		if err != nil {
			return err
		}
		want := map[string]bool{}
		for k := range evalQuery(sq.query, w.world) {
			want[strings.ReplaceAll(k, "\x00", ", ")] = true
		}
		for _, a := range out.tail {
			if !want[answerArgs(a)] {
				return fmt.Errorf("session %d: %s: answer %s is not in Q(world)", i, sq.text, a)
			}
		}
	}
	return nil
}

// replay re-runs sessions 0..n-1 in process through the layers a served
// request passes: ParseQuery and CanonicalKey, reformulation on a
// session-cache miss, the core constructor and Next, PlanQuery/IsSound,
// the engine and the answer set — over a rebuilt copy of the daemon's
// source contents. Plan keys and answers must match the HTTP stream.
func (w *serveWorkload) replay(n int, l *ledger) error {
	var reg *obs.Registry
	if l != nil {
		reg = obs.NewRegistry()
	}
	store := execsim.PopulateSources(w.d.Catalog, w.world, serveCompleteness, w.serverSeed+1)
	// The daemon's cache already holds the hot shapes, reformulated from
	// the variants the warm-up sent first (slots 0..len(hot)-1): bucket
	// order, and so plan keys, follow that variant's atom order.
	prepared := map[string]*reformulate.PlanDomain{}
	for slot := range w.hot {
		sq, err := w.queryAt(slot)
		if err != nil {
			return err
		}
		q := sq.query
		b, err := reformulate.BuildBuckets(q, w.d.Catalog)
		if err != nil {
			return err
		}
		prepared[q.CanonicalKey()] = reformulate.NewPlanDomain(b, w.d.Catalog)
	}
	for i := 0; i < n; i++ {
		sq, err := w.queryAt(w.warmSlots + i)
		if err != nil {
			return err
		}
		rec := w.out[i]
		t := l.start()
		q, err := schema.ParseQuery(sq.text)
		key := ""
		if err == nil {
			key = q.CanonicalKey()
		}
		l.stop("schema.parse", t)
		if err != nil {
			return err
		}
		pd := prepared[key]
		if !rec.hit || pd == nil {
			t := l.start()
			b, err := reformulate.BuildBuckets(q, w.d.Catalog)
			if err == nil {
				pd = reformulate.NewPlanDomain(b, w.d.Catalog)
			}
			l.stop("reformulate.prepare", t)
			if err != nil {
				return err
			}
			prepared[key] = pd
		}
		eng := execsim.NewEngine(w.d.Catalog, store)
		eng.EnableFailures(w.serverSeed + 2)
		s := layeredSession{
			query: q, catalog: w.d.Catalog, prepared: pd, measure: chainMeasure, algo: "streamer",
			k: serveK, engine: eng, reg: reg,
		}
		var got digest
		keys, _, err := s.run(l, func(pq *schema.Query, fresh []schema.Atom) {
			for _, a := range fresh {
				got.add([]string{a.String()})
			}
		})
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		if strings.Join(keys, " ") != strings.Join(rec.keys, " ") || got != rec.answers {
			return fmt.Errorf("session %d (%s): replayed plans or answers differ from the served stream", i, sq.text)
		}
		l.add("execsim.accesses", float64(eng.Accesses))
		l.add("execsim.cache_hits", float64(eng.CacheHits))
		l.add("server.requests", 1)
		l.add("server.stream_kb", float64(rec.bytes)/1024)
		if rec.hit {
			l.add("server.cache_hits", 1)
		}
	}
	addCoreCounts(l, reg)
	addEngineCounts(l, reg)
	return nil
}

func (w *serveWorkload) close() {
	if w.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.httpSrv.Shutdown(ctx)
	<-w.served
	w.client.CloseIdleConnections()
	w.httpSrv = nil
}
