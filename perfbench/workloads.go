package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"adj"
)

// Every workload runs this many logical workers per execution.
const workers = 8

// samples is the sampling budget each execution's planner gets.
const samples = 1000

// workload is one named set of inputs and operations. setup makes the
// program calls that precede timing; measure runs one timed phase.
type workload interface {
	setup() (time.Duration, error)
	measure(d time.Duration, tr *tracer, opBase int64) *phase
	kernelCases() []kernelCase
	// validate reports every way the phases fail to exercise what the
	// workload was chosen for.
	validate(ps []*phase) []string
	// notes are facts about the run printed beside its metrics.
	notes() map[string]any
	close() error
}

// sessionTotals are a workload's admission and store counters over one
// phase.
type sessionTotals struct {
	shed, rejected                       int64
	storeHits, storeMisses, storeEvicted int64
	storeBytes                           int64 // resident at the phase's end
}

func (t *sessionTotals) addDelta(a0, a1 adj.AdmissionStats, s0, s1 adj.TrieStoreStats) {
	t.shed += a1.Shed - a0.Shed
	t.rejected += a1.Rejected - a0.Rejected
	t.storeHits += s1.Hits - s0.Hits
	t.storeMisses += s1.Misses - s0.Misses
	t.storeEvicted += s1.Evictions - s0.Evictions
	t.storeBytes = s1.Bytes
}

// sessionOptions is the session configuration every workload starts from.
func sessionOptions() adj.Options {
	return adj.Options{Workers: workers, Samples: samples, Seed: 1}
}

// coldOptions configures the one-execution sessions of the cold
// workloads: the cross-query trie store is off, as in adj.RunGraph.
func coldOptions() adj.Options {
	o := sessionOptions()
	o.TrieStoreBytes = -1
	return o
}

// timed runs f under a span and returns its error.
func timed(tr *tracer, name string, parent, op int64, f func() error) error {
	sp := tr.begin(name, parent, op)
	err := f()
	sp.end()
	return err
}

// ---- cold-adj ----------------------------------------------------------

// coldADJ runs one cold ADJ execution per operation on a fresh session,
// rotating through three of the co-optimizer's plan forms, over each of
// the run's graphs in turn.
type coldADJ struct {
	graphs  []*adj.Relation
	queries []adj.Query
	want    map[string][]answer // query → answer per graph
	totals  sessionTotals
	// bagPlans and flatPlans count, per query, the executions whose plan
	// pre-computed a bag and those whose plan did not. ADJ calibrates its
	// cost constants by timing, so the choice can differ between
	// executions on a busy host.
	bagPlans, flatPlans map[string]int
}

const (
	coldADJScale  = 0.2
	coldADJGraphs = 2
)

func newColdADJ(seed int64) (*coldADJ, error) {
	w := &coldADJ{
		queries:   []adj.Query{adj.CatalogQuery("Q1"), adj.CatalogQuery("Q5"), adj.CatalogQuery("Q2")},
		want:      make(map[string][]answer),
		bagPlans:  make(map[string]int),
		flatPlans: make(map[string]int),
	}
	for j := 0; j < coldADJGraphs; j++ {
		g := ljGraph(subSeed(seed, j), coldADJScale)
		w.graphs = append(w.graphs, g)
		for _, q := range w.queries {
			a, err := reference(q, q.BindGraph(g))
			if err != nil {
				return nil, err
			}
			w.want[q.Name] = append(w.want[q.Name], a)
		}
	}
	return w, nil
}

// once is operation i: one cold execution of a query over a graph —
// Open, Register, PrepareGraph, Exec, Close, each under its own span.
func (w *coldADJ) once(i int, tr *tracer, op, parent int64) opResult {
	q := w.queries[i%len(w.queries)]
	gi := i / len(w.queries) % len(w.graphs)
	var s *adj.Session
	if err := timed(tr, "adj.open", parent, op, func() (err error) { s, err = adj.Open(coldOptions()); return err }); err != nil {
		return opResult{err: err}
	}
	var pq *adj.PreparedQuery
	var res *adj.Results
	err := timed(tr, "adj.register", parent, op, func() error { return s.Register("edges", w.graphs[gi]) })
	if err == nil {
		err = timed(tr, "adj.prepare", parent, op, func() (err error) { pq, err = s.PrepareGraph("ADJ", q, "edges"); return err })
	}
	if err == nil {
		err = timed(tr, "adj.exec", parent, op, func() (err error) { res, err = pq.Exec(context.Background(), adj.CountOnly()); return err })
	}
	w.totals.addDelta(adj.AdmissionStats{}, s.AdmissionStats(), adj.TrieStoreStats{}, s.TrieStoreStats())
	if cerr := timed(tr, "adj.close", parent, op, s.Close); err == nil {
		err = cerr
	}
	if err != nil {
		return opResult{err: fmt.Errorf("%s: %w", q.Name, err)}
	}
	rep := res.Report()
	if strings.Contains(pq.Plan(), "*") { // the plan text marks a pre-computed bag with *
		w.bagPlans[q.Name]++
	} else {
		w.flatPlans[q.Name]++
	}
	want := w.want[q.Name][gi]
	return opResult{rep: &rep, verify: func() error { return check(res, want, false) }}
}

func (w *coldADJ) setup() (time.Duration, error) {
	return coldSetup(len(w.queries), w.once)
}

// coldSetup warms a cold workload with its first `forms` operations and
// returns the wall time of the program calls made: everything but the
// session's Close, which ends the warm-up rather than preparing for timing.
func coldSetup(forms int, once func(i int, tr *tracer, op, parent int64) opResult) (time.Duration, error) {
	tr := newTracer()
	for i := 0; i < forms; i++ {
		r := once(i, tr, 0, 0)
		if r.err == nil {
			r.err = r.verify()
		}
		if r.err != nil {
			return 0, fmt.Errorf("setup: %w", r.err)
		}
	}
	var total time.Duration
	for _, s := range tr.snapshot() {
		if s.Name != "adj.close" {
			total += s.End - s.Start
		}
	}
	return total, nil
}

func (w *coldADJ) measure(d time.Duration, tr *tracer, opBase int64) *phase {
	w.totals = sessionTotals{}
	p := closedLoop(d, len(w.queries)*len(w.graphs), tr, opBase, func(i int, op, parent int64) opResult {
		return w.once(i, tr, op, parent)
	})
	p.sess = w.totals
	return p
}

func (w *coldADJ) kernelCases() []kernelCase {
	var cs []kernelCase
	for _, q := range w.queries {
		cs = append(cs, graphCase(q, w.graphs[0]))
	}
	return cs
}

func (w *coldADJ) validate(ps []*phase) []string {
	var bad []string
	for _, p := range ps {
		if p.ctr.builds != p.ctr.blocks {
			bad = append(bad, fmt.Sprintf("cold-adj: %d trie builds for %d blocks, want equal", p.ctr.builds, p.ctr.blocks))
		}
	}
	with, without := 0, 0
	for _, q := range w.queries {
		with += w.bagPlans[q.Name]
		without += w.flatPlans[q.Name]
	}
	if with == 0 || without == 0 {
		bad = append(bad, fmt.Sprintf("cold-adj: %d executions pre-computed a bag and %d did not; the rotation must cover both", with, without))
	}
	return bad
}

func (w *coldADJ) notes() map[string]any {
	return map[string]any{"plans_with_bag": w.bagPlans, "plans_without_bag": w.flatPlans}
}

func (w *coldADJ) close() error { return nil }

// ---- cold-hashjoin -----------------------------------------------------

// coldHashJoin runs one cold execution per operation on the
// path-attached triangle, rotating through the engines whose work is hash
// joins, semijoins and multi-round exchanges, over each of the run's
// instances in turn, and drains every result.
type coldHashJoin struct {
	q       adj.Query
	dbs     []adj.Database
	names   []string // relation names, sorted
	engines []string
	want    []answer // per instance
	totals  sessionTotals
	// hybridPlans holds every plan the Hybrid router lowered.
	hybridPlans map[string]bool
}

const (
	pathTriangleScale     = 2000
	pathTriangleInstances = 2
)

func newColdHashJoin(seed int64) (*coldHashJoin, error) {
	w := &coldHashJoin{
		q:           pathTriangleQuery(),
		engines:     []string{"Hybrid", "SparkSQL", "BigJoin"},
		hybridPlans: make(map[string]bool),
	}
	for j := 0; j < pathTriangleInstances; j++ {
		db := pathTriangleDB(subSeed(seed, j), pathTriangleScale)
		rels, err := w.q.Bind(db)
		if err != nil {
			return nil, err
		}
		a, err := reference(w.q, rels)
		if err != nil {
			return nil, err
		}
		w.dbs = append(w.dbs, db)
		w.want = append(w.want, a)
	}
	for name := range w.dbs[0] {
		w.names = append(w.names, name)
	}
	slices.Sort(w.names)
	return w, nil
}

// once is operation i: one cold execution by an engine over an instance,
// with its rows drained.
func (w *coldHashJoin) once(i int, tr *tracer, op, parent int64) opResult {
	engine := w.engines[i%len(w.engines)]
	di := i / len(w.engines) % len(w.dbs)
	db := w.dbs[di]
	var s *adj.Session
	if err := timed(tr, "adj.open", parent, op, func() (err error) { s, err = adj.Open(coldOptions()); return err }); err != nil {
		return opResult{err: err}
	}
	var err error
	for _, name := range w.names {
		if err = timed(tr, "adj.register", parent, op, func() error { return s.Register(name, db[name]) }); err != nil {
			break
		}
	}
	var pq *adj.PreparedQuery
	var res *adj.Results
	if err == nil {
		err = timed(tr, "adj.prepare", parent, op, func() (err error) { pq, err = s.Prepare(engine, w.q); return err })
	}
	if err == nil {
		err = timed(tr, "adj.exec", parent, op, func() (err error) { res, err = pq.Exec(context.Background()); return err })
	}
	if err == nil {
		err = timed(tr, "adj.drain", parent, op, func() error {
			if n := drain(res); n != res.Count() {
				return fmt.Errorf("drained %d rows, report counts %d", n, res.Count())
			}
			return nil
		})
	}
	w.totals.addDelta(adj.AdmissionStats{}, s.AdmissionStats(), adj.TrieStoreStats{}, s.TrieStoreStats())
	if cerr := timed(tr, "adj.close", parent, op, s.Close); err == nil {
		err = cerr
	}
	if err != nil {
		return opResult{err: fmt.Errorf("%s: %w", engine, err)}
	}
	if engine == "Hybrid" {
		w.hybridPlans[pq.Explain()] = true
	}
	rep := res.Report()
	want := w.want[di]
	return opResult{rep: &rep, verify: func() error { return check(res, want, true) }}
}

func (w *coldHashJoin) setup() (time.Duration, error) {
	return coldSetup(len(w.engines), w.once)
}

func (w *coldHashJoin) measure(d time.Duration, tr *tracer, opBase int64) *phase {
	w.totals = sessionTotals{}
	p := closedLoop(d, len(w.engines)*len(w.dbs), tr, opBase, func(i int, op, parent int64) opResult {
		return w.once(i, tr, op, parent)
	})
	p.sess = w.totals
	return p
}

func (w *coldHashJoin) kernelCases() []kernelCase {
	db := w.dbs[0]
	rels, _ := w.q.Bind(db) // bound without error in newColdHashJoin
	// The hash-join kernel joins the ear P1(c,d) with the far path
	// P2(d,e): the join the Hybrid tail performs.
	return []kernelCase{{q: w.q, rels: rels, join: [2]int{3, 4},
		stored: []*adj.Relation{db["R1"], db["P1"], db["P2"]}}}
}

func (w *coldHashJoin) validate(ps []*phase) []string {
	if len(w.hybridPlans) == 0 {
		return []string{"cold-hashjoin: no Hybrid execution ran"}
	}
	for plan := range w.hybridPlans {
		if !strings.Contains(plan, "Semijoin") {
			return []string{"cold-hashjoin: the Hybrid plan has no Semijoin split:\n" + plan}
		}
	}
	return nil
}

func (w *coldHashJoin) notes() map[string]any { return nil }

func (w *coldHashJoin) close() error { return nil }
