package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"adj"
)

// ---- warm-serve --------------------------------------------------------

// Open-loop settings of warm-serve, fixed from measurement on a 2-core
// x86-64 host whose capacity on this mix is about 95 requests per second
// (tail latency 0.07s at 60/s, shedding from about 100/s): serveRate sits
// at a fifth of it, so a neighbour taking a core does not tip it into
// queueing, and serveLimit is the tail-latency limit the max_rate_qps
// note is judged by.
const (
	serveScale = 0.05
	serveRate  = 20.0 // requests per second
	serveLimit = 0.25 // seconds
)

// serveLadder is the fixed ladder of arrival rates (requests per second)
// the max_rate_qps note climbs, lowest first. Its factor-2 steps keep
// every rung at least a third away from that host's capacity, so which
// rung passes does not depend on noise.
var serveLadder = []float64{15, 30, 60, 120, 240, 480}

// warmServe drives one resident session with an open loop of warm
// executions: interactive ones that drain their rows and bulk count-only
// ones, under two tenants, over each of the run's graphs.
type warmServe struct {
	seed    int64
	graphs  []*adj.Relation
	queries []adj.Query
	want    []answer // per prepared query, graph-major
	nproc   int

	sess   *adj.Session
	pqs    []*adj.PreparedQuery // graph-major: pqs[g*len(queries)+q]
	phases int                  // phases run so far, to vary each phase's request mix
}

// serveGraphs is how many graphs warm-serve registers and queries.
const serveGraphs = 3

func newWarmServe(seed int64) (*warmServe, error) {
	w := &warmServe{
		seed:    seed,
		queries: []adj.Query{adj.CatalogQuery("Q1"), adj.CatalogQuery("Q4"), adj.CatalogQuery("Q5")},
		nproc:   runtime.NumCPU(),
	}
	for j := 0; j < serveGraphs; j++ {
		g := ljGraph(subSeed(seed, j), serveScale)
		w.graphs = append(w.graphs, g)
		for _, q := range w.queries {
			a, err := reference(q, q.BindGraph(g))
			if err != nil {
				return nil, err
			}
			w.want = append(w.want, a)
		}
	}
	return w, nil
}

// setup opens the resident session, registers the graphs, prepares every
// query on each and warms each prepared query twice: the first execution
// publishes its tries, the second adopts them.
func (w *warmServe) setup() (time.Duration, error) {
	if err := w.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	opts := sessionOptions()
	opts.Concurrency = w.nproc
	s, err := adj.Open(opts)
	if err != nil {
		return 0, err
	}
	w.sess = s
	w.pqs = w.pqs[:0]
	for j, g := range w.graphs {
		name := fmt.Sprintf("edges%d", j)
		if err := s.Register(name, g); err != nil {
			return 0, err
		}
		for _, q := range w.queries {
			pq, err := s.PrepareGraph("ADJ", q, name)
			if err != nil {
				return 0, err
			}
			w.pqs = append(w.pqs, pq)
		}
	}
	for round := 0; round < 2; round++ {
		for i, pq := range w.pqs {
			res, err := pq.Exec(context.Background())
			if err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
			drain(res)
			if err := check(res, w.want[i], true); err != nil {
				return 0, fmt.Errorf("setup, prepared query %d: %w", i, err)
			}
		}
	}
	return time.Since(t0), nil
}

// request is one scheduled warm-serve operation.
type request struct {
	due         time.Time
	query       int // index of the prepared query
	interactive bool
	tenant      string
}

// schedule draws n requests over d from rng: arrival times of a Poisson
// process conditioned on n arrivals (n sorted uniform draws), and a mix
// that is exact in every block of 4·queries requests — each prepared
// query three times interactive and once bulk, the tenants alternating —
// shuffled within the block.
func schedule(rng *rand.Rand, start time.Time, d time.Duration, n, queries int) []request {
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * d.Seconds()
	}
	sort.Float64s(at)
	var block []request
	for q := 0; q < queries; q++ {
		for k := 0; k < 4; k++ {
			block = append(block, request{query: q, interactive: k != 0, tenant: []string{"tenant-a", "tenant-b"}[k%2]})
		}
	}
	reqs := make([]request, n)
	var perm []int
	for i := range reqs {
		if i%len(block) == 0 {
			perm = rng.Perm(len(block))
		}
		reqs[i] = block[perm[i%len(block)]]
		reqs[i].due = start.Add(time.Duration(at[i] * float64(time.Second)))
	}
	return reqs
}

// openLoop issues rate·d requests on a seeded schedule from one generator
// goroutine, each executed by a goroutine of its own, and waits for all of
// them. A request's latency runs from its scheduled time until its rows
// are drained.
func (w *warmServe) openLoop(rate float64, d time.Duration, tr *tracer, opBase int64) *phase {
	w.phases++
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(w.phases)))
	n := max(int(rate*d.Seconds()), 1)
	a0, s0 := w.sess.AdmissionStats(), w.sess.TrieStoreStats()
	p := newPhase()
	p.open = true
	reqs := schedule(rng, p.start.Add(5*time.Millisecond), d, n, len(w.pqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		time.Sleep(time.Until(rq.due))
		if lag := time.Since(rq.due).Seconds(); lag > p.genLag {
			p.genLag = lag // only this goroutine writes genLag
		}
		wg.Add(1)
		go func(op int64, rq request) {
			defer wg.Done()
			root := tr.begin("bench.op", 0, op)
			r := w.serve(rq, tr, op, root.ID)
			lat := time.Since(rq.due)
			root.end()
			p.record(r, lat)
		}(opBase+int64(i), rq)
	}
	wg.Wait()
	p.finish()
	p.sess.addDelta(a0, w.sess.AdmissionStats(), s0, w.sess.TrieStoreStats())
	return p
}

// serve executes one request.
func (w *warmServe) serve(rq request, tr *tracer, op, parent int64) opResult {
	pq := w.pqs[rq.query]
	opts := []adj.ExecOption{adj.WithTenant(rq.tenant)}
	if !rq.interactive {
		opts = append(opts, adj.WithClass(adj.Bulk), adj.CountOnly())
	}
	var res *adj.Results
	err := timed(tr, "adj.exec", parent, op, func() (err error) { res, err = pq.Exec(context.Background(), opts...); return err })
	if err == nil && rq.interactive {
		err = timed(tr, "adj.drain", parent, op, func() error { drain(res); return nil })
	}
	if err != nil {
		return opResult{err: err}
	}
	rep := res.Report()
	want := w.want[rq.query]
	return opResult{rep: &rep, verify: func() error { return check(res, want, rq.interactive) }}
}

func (w *warmServe) measure(d time.Duration, tr *tracer, opBase int64) *phase {
	return w.openLoop(serveRate, d, tr, opBase)
}

// rung is one step of the max-rate ladder.
type rung struct {
	rate     float64
	achieved float64 // completed requests per second of the rung's span
	summary  latencySummary
	failed   int64
	pass     bool
}

// climb runs the ladder from its lowest rate, d per rung, and stops at the
// first rate whose tail latency exceeds serveLimit, that fails or sheds a
// request, or that leaves a growing backlog (completions falling behind
// the schedule). A rung that misses is run once more before the climb
// stops, so a transient disturbance on the host does not end it. It
// returns the rungs run and their phases.
func (w *warmServe) climb(d time.Duration, opBase int64) ([]rung, []*phase) {
	var rungs []rung
	var phases []*phase
	for i, rate := range serveLadder {
		var r rung
		for attempt := 0; attempt < 2 && !r.pass; attempt++ {
			p := w.openLoop(rate, d, nil, opBase+int64(2*i+attempt)*1_000_000)
			phases = append(phases, p)
			r = rung{rate: rate, summary: summarize(p.lat), failed: p.failed}
			r.achieved = float64(len(p.lat)) / p.elapsed
			backlog := p.elapsed > d.Seconds()+serveLimit
			r.pass = p.failed == 0 && r.summary.Tail <= serveLimit && !backlog
			rungs = append(rungs, r)
		}
		if !r.pass {
			break
		}
	}
	return rungs, phases
}

func (w *warmServe) kernelCases() []kernelCase {
	var cs []kernelCase
	for _, q := range w.queries {
		cs = append(cs, graphCase(q, w.graphs[0]))
	}
	return cs
}

// validate checks that every execution went warm: no HCube shuffle, no
// trie build, no replan. Executions of plans with a pre-computed bag still
// move tuples in their precompute phase, which the store does not elide;
// that traffic is reported (hcube.tuples_shuffled, phase.precompute.bytes)
// rather than failed.
func (w *warmServe) validate(ps []*phase) []string {
	var bad []string
	for _, p := range ps {
		if shuffled := p.ctr.phaseTuples["shuffle"]; shuffled != 0 || p.ctr.builds != 0 || p.ctr.replanTotal() != 0 {
			bad = append(bad, fmt.Sprintf("warm-serve: %d tuples through the HCube shuffle, %d trie builds, %d replans; want 0 of each",
				shuffled, p.ctr.builds, p.ctr.replanTotal()))
		}
	}
	return bad
}

func (w *warmServe) notes() map[string]any { return nil }

func (w *warmServe) close() error {
	if w.sess == nil {
		return nil
	}
	err := w.sess.Close()
	w.sess = nil
	return err
}

// ---- refresh -----------------------------------------------------------

// Refresh settings: the graph scale, the version chain (length and edges
// replaced per version), and the trie-store budget. One version's tries
// for both queries take about 0.6 MB at this scale, so the budget holds
// the current version but not the one before it as well: every write
// evicts.
const (
	refreshScale    = 0.1
	refreshVersions = 16
	refreshDelta    = 40
	refreshStore    = 1 << 20 // bytes
)

// refreshCycle is the operation cycle: a write, then three executions of
// each prepared query, alternating. The first two after the write replan
// and run cold; the rest go warm.
const refreshCycle = 7

// refresh interleaves re-registrations of a graph's next version with
// executions of prepared queries on one resident session.
type refresh struct {
	versions []*adj.Relation
	queries  []adj.Query
	want     map[string][]answer // query → answer per version

	sess *adj.Session
	pqs  []*adj.PreparedQuery
	cur  int // version currently registered
	// writes counts the re-registrations of the current phase.
	writes int64
}

func newRefresh(seed int64) (*refresh, error) {
	g := ljGraph(seed, refreshScale)
	w := &refresh{
		versions: versionChain(seed, g, refreshVersions, refreshDelta),
		queries:  []adj.Query{adj.CatalogQuery("Q1"), adj.CatalogQuery("Q5")},
		want:     make(map[string][]answer),
	}
	for _, q := range w.queries {
		for _, v := range w.versions {
			a, err := reference(q, q.BindGraph(v))
			if err != nil {
				return nil, err
			}
			w.want[q.Name] = append(w.want[q.Name], a)
		}
	}
	return w, nil
}

func (w *refresh) setup() (time.Duration, error) {
	if err := w.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	opts := sessionOptions()
	opts.TrieStoreBytes = refreshStore
	s, err := adj.Open(opts)
	if err != nil {
		return 0, err
	}
	w.sess, w.cur = s, 0
	if err := s.Register("edges", w.versions[0]); err != nil {
		return 0, err
	}
	w.pqs = w.pqs[:0]
	for _, q := range w.queries {
		pq, err := s.PrepareGraph("ADJ", q, "edges")
		if err != nil {
			return 0, err
		}
		w.pqs = append(w.pqs, pq)
	}
	for round := 0; round < 2; round++ {
		for i, pq := range w.pqs {
			res, err := pq.Exec(context.Background(), adj.CountOnly())
			if err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
			if err := check(res, w.want[w.queries[i].Name][0], false); err != nil {
				return 0, fmt.Errorf("setup %s: %w", w.queries[i].Name, err)
			}
		}
	}
	return time.Since(t0), nil
}

// once is operation i of the cycle: a write of the next version, or a
// count-only execution of a prepared query.
func (w *refresh) once(i int, tr *tracer, op, parent int64) opResult {
	k := i % refreshCycle
	if k == 0 {
		next := (w.cur + 1) % len(w.versions)
		err := timed(tr, "adj.register", parent, op, func() error { return w.sess.Register("edges", w.versions[next]) })
		if err != nil {
			return opResult{err: err}
		}
		w.cur = next
		w.writes++
		return opResult{}
	}
	qi := (k - 1) % len(w.pqs)
	var res *adj.Results
	err := timed(tr, "adj.exec", parent, op, func() (err error) {
		res, err = w.pqs[qi].Exec(context.Background(), adj.CountOnly())
		return err
	})
	if err != nil {
		return opResult{err: err}
	}
	rep := res.Report()
	want := w.want[w.queries[qi].Name][w.cur]
	return opResult{rep: &rep, verify: func() error { return check(res, want, false) }}
}

func (w *refresh) measure(d time.Duration, tr *tracer, opBase int64) *phase {
	w.writes = 0
	a0, s0 := w.sess.AdmissionStats(), w.sess.TrieStoreStats()
	p := closedLoop(d, refreshCycle, tr, opBase, func(i int, op, parent int64) opResult {
		return w.once(i, tr, op, parent)
	})
	p.sess.addDelta(a0, w.sess.AdmissionStats(), s0, w.sess.TrieStoreStats())
	p.writes = w.writes
	return p
}

func (w *refresh) kernelCases() []kernelCase {
	var cs []kernelCase
	for _, q := range w.queries {
		cs = append(cs, graphCase(q, w.versions[w.cur]))
	}
	return cs
}

func (w *refresh) validate(ps []*phase) []string {
	var bad []string
	for _, p := range ps {
		for _, q := range w.queries {
			if got := p.ctr.replans[q.Name]; got != p.writes {
				bad = append(bad, fmt.Sprintf("refresh: %s replanned %d times over %d writes, want one per write", q.Name, got, p.writes))
			}
		}
		if p.sess.storeEvicted == 0 {
			bad = append(bad, "refresh: the trie store evicted nothing; its budget does not bind")
		}
	}
	return bad
}

func (w *refresh) notes() map[string]any { return nil }

func (w *refresh) close() error {
	if w.sess == nil {
		return nil
	}
	err := w.sess.Close()
	w.sess = nil
	return err
}
