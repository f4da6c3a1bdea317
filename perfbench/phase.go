package main

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"adj"
)

// phaseRoots is the pipeline's phase vocabulary: every phase the engines
// charge is named root[digits][/subphase] over these roots.
var phaseRoots = []string{"optimize", "sample", "precompute", "shuffle", "tries", "join", "round", "emit", "coordinator"}

// phaseRoot maps a phase name to its root ("shuffle2/encode" → "shuffle").
func phaseRoot(name string) string {
	name, _, _ = strings.Cut(name, "/")
	return strings.TrimRight(name, "0123456789")
}

// counters sums the work an execution's Report states, over the
// executions of one phase.
type counters struct {
	execs                                   int64
	replans                                 map[string]int64 // by query
	optimization, queue, modeled, overlap   float64
	tuples, bytes, messages, chunks, dials  int64
	retries, recvPeak, blocks, builds, hits int64
	runs, values                            int64
	phaseComp                               map[string]float64
	phaseBytes                              map[string]int64
	phaseTuples                             map[string]int64
	unknownPhases                           map[string]bool
}

func newCounters() counters {
	return counters{
		replans:       make(map[string]int64),
		phaseComp:     make(map[string]float64),
		phaseBytes:    make(map[string]int64),
		phaseTuples:   make(map[string]int64),
		unknownPhases: make(map[string]bool),
	}
}

func (c *counters) add(rep adj.Report) {
	c.execs++
	if rep.Optimization > 0 {
		c.replans[rep.Query]++
	}
	c.optimization += rep.Optimization
	c.queue += rep.QueueSeconds
	c.modeled += rep.Total()
	c.overlap += rep.OverlapSeconds
	c.tuples += rep.TuplesShuffled
	c.bytes += rep.BytesShuffled
	c.messages += rep.Messages
	c.chunks += rep.StreamChunks
	c.dials += rep.TransportDials
	c.retries += rep.TransportRetries
	c.recvPeak += rep.RecvPeakBytes
	c.blocks += rep.CacheBlocks
	c.builds += rep.TrieBuilds
	c.hits += rep.TrieCacheHits
	c.runs += rep.EmittedRuns
	c.values += rep.EmittedValues
	if rep.Metrics == nil {
		return
	}
	for _, ph := range rep.Metrics.Phases() {
		root := phaseRoot(ph.Name)
		c.phaseComp[root] += ph.CompSeconds
		c.phaseBytes[root] += ph.BytesSent
		c.phaseTuples[root] += ph.TuplesSent
		c.phaseTuples[root] += ph.TuplesSent
		if !slices.Contains(phaseRoots, root) {
			c.unknownPhases[ph.Name] = true
		}
	}
}

func (c *counters) replanTotal() int64 {
	var n int64
	for _, v := range c.replans {
		n += v
	}
	return n
}

// opResult is one operation's outcome as the operation reports it.
type opResult struct {
	// rep is the execution's report; nil for writes and failed executions.
	rep *adj.Report
	// err is set when the operation failed: an error, a shed or a refusal.
	err error
	// verify checks the output against the reference. It runs after the
	// operation's latency is taken.
	verify func() error
}

// phase is one timed stretch of a workload: latencies, failures, work
// counters and memory, for one tracer setting.
type phase struct {
	open bool // an open loop: requests arrive on a schedule

	mu         sync.Mutex
	lat        []float64 // seconds, completed operations only
	attempted  int64
	failed     int64
	mismatches int64
	firstErrs  []string
	ctr        counters
	genLag     float64 // largest lateness of the open-loop generator
	sess       sessionTotals
	writes     int64 // re-registrations, for workloads that write

	start   time.Time
	elapsed float64 // first start to last completion, seconds
	busy    float64 // summed latency of every operation, seconds
	rssMiB  float64
	mem     runtime.MemStats // delta over the phase
	rss     *rssSampler
	mem0    runtime.MemStats
}

func newPhase() *phase {
	p := &phase{ctr: newCounters()}
	p.rss = startRSS()
	runtime.ReadMemStats(&p.mem0)
	p.start = time.Now()
	return p
}

// finish closes the phase's clock and its memory readings.
func (p *phase) finish() {
	p.elapsed = time.Since(p.start).Seconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.rssMiB = p.rss.finish()
	p.mem.TotalAlloc = m.TotalAlloc - p.mem0.TotalAlloc
	p.mem.NumGC = m.NumGC - p.mem0.NumGC
	p.mem.PauseTotalNs = m.PauseTotalNs - p.mem0.PauseTotalNs
}

// record folds one operation into the phase and runs its output check.
func (p *phase) record(r opResult, lat time.Duration) {
	var mismatch error
	if r.err == nil && r.verify != nil {
		mismatch = r.verify()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.busy += lat.Seconds()
	switch {
	case r.err != nil:
		p.failed++
		p.noteErr("error: " + r.err.Error())
	case mismatch != nil:
		p.failed++
		p.mismatches++
		p.noteErr("output check: " + mismatch.Error())
	default:
		p.lat = append(p.lat, lat.Seconds())
	}
	if r.rep != nil {
		p.ctr.add(*r.rep)
	}
}

func (p *phase) noteErr(s string) {
	if len(p.firstErrs) < 5 {
		p.firstErrs = append(p.firstErrs, s)
	}
}

// meanLatency is the mean latency of the completed operations.
func (p *phase) meanLatency() float64 {
	if len(p.lat) == 0 {
		return 0
	}
	var s float64
	for _, x := range p.lat {
		s += x
	}
	return s / float64(len(p.lat))
}

// opFunc runs operation i (the i-th of the phase) under the span parent.
type opFunc func(i int, op, parent int64) opResult

// closedLoop runs operations back to back from one client until d has
// passed. It looks at the clock only after whole cycles of `cycle`
// operations, so every run executes the same mix.
func closedLoop(d time.Duration, cycle int, tr *tracer, opBase int64, do opFunc) *phase {
	p := newPhase()
	deadline := p.start.Add(d)
	for i := 0; ; i++ {
		if i%cycle == 0 && i > 0 && time.Now().After(deadline) {
			break
		}
		op := opBase + int64(i)
		root := tr.begin("bench.op", 0, op)
		t0 := time.Now()
		r := do(i, op, root.ID)
		lat := time.Since(t0)
		root.end()
		p.record(r, lat)
	}
	p.finish()
	return p
}
