package engine

import (
	"strings"
	"testing"

	"adj/internal/blockcache"
	"adj/internal/cluster"
	"adj/internal/dataset"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/plan"
	"adj/internal/relation"
)

// reuseFor connects a run to store the way a session does: every atom's
// relation is keyed by its content fingerprint.
func reuseFor(store *blockcache.Store, q hypergraph.Query, rels []*relation.Relation) *hcube.Reuse {
	sigs := make(map[string]uint64, len(rels))
	for i, a := range q.Atoms {
		sigs[a.Name] = relation.Fingerprint(rels[i])
	}
	return &hcube.Reuse{Store: store, Sigs: sigs}
}

// phaseNames lists the metrics phases a run recorded.
func phaseNames(rep Report) []string {
	var out []string
	for _, p := range rep.Metrics.Phases() {
		out = append(out, p.Name)
	}
	return out
}

// bagWorkload is Q5 over a small graph on 4 servers, for which ADJ
// pre-computes the R1_R5_R6 bag (the choice is driven by communication
// cost and holds over a 1000x range of the calibrated β_trie). It fails
// the test when the plan has no pre-computed bag, so no test built on it
// can pass on a flat plan.
func bagWorkload(t *testing.T) (hypergraph.Query, []*relation.Relation, Config) {
	t.Helper()
	q := hypergraph.Q5()
	rels := q.BindGraph(dataset.Load("WB", 0.02))
	cfg := smallCfg(4)
	cfg.CollectOutput = true
	pp, err := Prepare("ADJ", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Opt.Precompute) == 0 {
		t.Fatalf("premise broken: ADJ plan %s pre-computes no bag", pp.Opt)
	}
	cfg.Prepared = pp
	return q, rels, cfg
}

// A pre-compute op whose output is also read by an op other than the warm
// shuffle must run: skipping it would leave that reader without input.
// Ops read only by the warm shuffle, directly or through other skipped
// ops, are skipped.
func TestSkipSetKeepsSharedProducers(t *testing.T) {
	build := func(sharedReader bool) *plan.Program {
		prog := &plan.Program{Engine: "hand"}
		r := plan.Sig{Name: "R", Attrs: []string{"a", "b"}}
		s := plan.Sig{Name: "S", Attrs: []string{"b", "c"}}
		bag := plan.Sig{Name: "RS", Attrs: []string{"a", "b", "c"}}
		hj := prog.Add(&plan.Op{Kind: plan.HashJoin, Phase: "precompute", Left: r, Right: s, Out: bag})
		canon := prog.Add(&plan.Op{Kind: plan.Project, Phase: "precompute/canon",
			Inputs: []int{hj.ID}, Left: bag, Out: bag})
		sh := prog.Add(&plan.Op{Kind: plan.Shuffle, Phase: "shuffle", Inputs: []int{canon.ID},
			Rels:  []plan.RelRef{{Name: "RS", Attrs: bag.Attrs, Dynamic: true}},
			Order: bag.Attrs})
		lf := prog.Add(&plan.Op{Kind: plan.LeapfrogCube, Phase: "join", Inputs: []int{sh.ID}, Order: bag.Attrs})
		last := lf.ID
		if sharedReader {
			tail := prog.Add(&plan.Op{Kind: plan.HashJoin, Phase: "join1",
				Inputs: []int{lf.ID, canon.ID}, Left: bag, Right: s,
				Out: plan.Sig{Name: "I1", Attrs: bag.Attrs}})
			last = tail.ID
		}
		prog.Add(&plan.Op{Kind: plan.Emit, Inputs: []int{last}})
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		return prog
	}

	skip := skipSet(build(false), map[int]bool{2: true})
	for id, want := range []bool{true, true, false, false, false} {
		if skip[id] != want {
			t.Fatalf("private chain: skip[#%d] = %v, want %v", id, skip[id], want)
		}
	}
	skip = skipSet(build(true), map[int]bool{2: true})
	for id := range build(true).Ops {
		if skip[id] {
			t.Fatalf("shared producer chain: op #%d skipped though #4 reads #1", id)
		}
	}
	if skip := skipSet(build(false), map[int]bool{2: false}); len(trueKeys(skip)) != 0 {
		t.Fatalf("shuffle not warm, yet ops %v skipped", trueKeys(skip))
	}
}

func trueKeys(m map[int]bool) []int {
	var out []int
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	return out
}

// A warm ADJ run of a bag plan skips the pre-compute: no precompute phase,
// no tuple moved, no trie built, the cold run's rows. Its store traffic is
// exactly one snapshot of the shuffle — the size check and the shuffle do
// not both look the manifests up — and it misses nothing.
func TestWarmBagSkipsPrecomputeAndCountsHitsOnce(t *testing.T) {
	q, rels, cfg := bagWorkload(t)
	store := blockcache.NewStore(0)
	cfg.Reuse = reuseFor(store, q, rels)

	cold, err := RunADJ(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PreComputing == 0 || cold.TrieBuilds == 0 {
		t.Fatalf("cold run: pre=%.6fs builds=%d; want both nonzero", cold.PreComputing, cold.TrieBuilds)
	}
	before := store.Stats()
	warm, err := RunADJ(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if warm.PreComputing != 0 || warm.TuplesShuffled != 0 || warm.TrieBuilds != 0 {
		t.Fatalf("warm run: pre=%.6fs shuffled=%d builds=%d; want 0 each",
			warm.PreComputing, warm.TuplesShuffled, warm.TrieBuilds)
	}
	for _, name := range phaseNames(warm) {
		if strings.HasPrefix(name, "precompute") {
			t.Fatalf("warm run recorded phase %q", name)
		}
	}
	if !warm.Output.Equal(cold.Output) {
		t.Fatal("warm rows differ from the cold run's")
	}

	// One standalone snapshot of the same shuffle sets the expected count.
	c := cluster.New(cluster.Config{N: cfg.NumServers})
	defer c.Close()
	st := &progState{resolved: make(map[int]resolvedShuffle)}
	if _, err := resolveWarm(c, cfg.Prepared.Program, st, cfg, &Report{}); err != nil {
		t.Fatal(err)
	}
	once := store.Stats()
	wantHits := once.Hits - after.Hits
	if wantHits == 0 || len(st.resolved) != 1 {
		t.Fatalf("standalone resolve: %d hits over %d shuffles", wantHits, len(st.resolved))
	}
	if got := after.Hits - before.Hits; got != wantHits {
		t.Fatalf("warm run counted %d store hits, one snapshot is %d", got, wantHits)
	}
	if after.Misses != before.Misses || once.Misses != after.Misses {
		t.Fatalf("warm lookups missed: misses %d -> %d -> %d", before.Misses, after.Misses, once.Misses)
	}
}

// A remembered size whose layout is not resident falls back to running
// the pre-compute: here the store was filled by a 4-server run, so a
// 3-server run of the same plan finds the bag's size but not its blocks
// under the 3-server shares. It must re-materialize the bag, match a
// store-less run, and leave the next 3-server run fully warm.
func TestWarmBagLayoutMissRunsPrecompute(t *testing.T) {
	q, rels, cfg := bagWorkload(t)
	store := blockcache.NewStore(0)
	cfg.Reuse = reuseFor(store, q, rels)
	if _, err := RunADJ(q, rels, cfg); err != nil {
		t.Fatal(err)
	}

	cfg3 := cfg
	cfg3.NumServers = 3
	plain := cfg3
	plain.Reuse = nil
	want, err := RunADJ(q, rels, plain)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := RunADJ(q, rels, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if miss.PreComputing == 0 {
		t.Fatal("layout miss skipped the pre-compute")
	}
	if !miss.Output.Equal(want.Output) {
		t.Fatal("layout-miss run differs from the store-less run")
	}
	warm, err := RunADJ(q, rels, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PreComputing != 0 || warm.TuplesShuffled != 0 || warm.TrieBuilds != 0 {
		t.Fatalf("second 3-server run: pre=%.6fs shuffled=%d builds=%d; want 0 each",
			warm.PreComputing, warm.TuplesShuffled, warm.TrieBuilds)
	}
	if !warm.Output.Equal(want.Output) {
		t.Fatal("warm 3-server run differs from the store-less run")
	}
}

// A warm Hybrid run of the split plan skips its semijoin pre-reductions
// (the reduced core relations are adopted from the store), still runs the
// ear hash joins on the core's output, and returns the store-less run's
// rows in the same order.
func TestWarmHybridSkipsReductions(t *testing.T) {
	q, rels := hybridWorkload(1000)
	cfg := Config{NumServers: 4, Samples: 300, Seed: 7, CollectOutput: true}
	pp, err := Prepare("Hybrid", q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pp.Program.Tree(), "Semijoin") {
		t.Fatalf("premise broken: no pre-reductions in\n%s", pp.Program.Tree())
	}
	cfg.Prepared = pp
	want, err := RunHybrid(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Reuse = reuseFor(blockcache.NewStore(0), q, rels)
	if _, err := RunHybrid(q, rels, cfg); err != nil {
		t.Fatal(err)
	}
	warm, err := RunHybrid(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reduces, tails int
	for _, name := range phaseNames(warm) {
		switch {
		case strings.HasPrefix(name, "precompute/reduce"):
			reduces++
		case strings.HasPrefix(name, "join") && name != "join":
			tails++
		}
	}
	if reduces != 0 || warm.PreComputing != 0 {
		t.Fatalf("warm hybrid ran %d reductions (pre=%.6fs)", reduces, warm.PreComputing)
	}
	if tails == 0 {
		t.Fatalf("warm hybrid ran no ear hash joins: phases %v", phaseNames(warm))
	}
	if warm.TrieBuilds != 0 {
		t.Fatalf("warm hybrid built %d tries", warm.TrieBuilds)
	}
	if !warm.Output.Equal(want.Output) {
		t.Fatal("warm hybrid rows differ from the store-less run")
	}
}
