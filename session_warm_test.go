package adj

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// bagOpts, bagQuery and bagGraph form a workload whose ADJ plan
// pre-computes a GHD bag: Q5 on 4 workers over a small graph picks
// R1_R5_R6* on communication cost, whatever the host's calibrated trie
// probe rate.
var bagOpts = Options{Workers: 4, Samples: 200, Seed: 1}

func bagQuery() Query { return CatalogQuery("Q5") }

func bagGraph() *Relation { return GenerateGraph("WB", 0.02) }

// prepareBag prepares the bag workload on s and fails the test unless the
// plan pre-computes a bag (rendered with a "*"), so no warm-bag test can
// pass on a flat plan.
func prepareBag(t *testing.T, s *Session) *PreparedQuery {
	t.Helper()
	pq, err := s.PrepareGraph("ADJ", bagQuery(), "edges")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pq.Plan(), "*") {
		t.Fatalf("premise broken: plan %q pre-computes no bag", pq.Plan())
	}
	return pq
}

// oneShotRows is the one-shot RunGraph output of the bag workload.
func oneShotRows(t *testing.T, edges *Relation) *Relation {
	t.Helper()
	o := bagOpts
	o.CollectOutput = true
	rep, err := RunGraph("ADJ", bagQuery(), edges, o)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Output
}

// execRows runs one exec and returns its report and rows.
func execRows(t *testing.T, pq *PreparedQuery) (Report, *Relation) {
	t.Helper()
	res, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Failed {
		t.Fatalf("exec failed: %s", rep.FailReason)
	}
	return rep, res.Rows()
}

// requireWarmBag asserts an exec skipped the pre-compute and the shuffle.
func requireWarmBag(t *testing.T, what string, rep Report) {
	t.Helper()
	if rep.PreComputing != 0 || rep.TuplesShuffled != 0 || rep.TrieBuilds != 0 || rep.TrieCacheHits == 0 {
		t.Fatalf("%s: pre=%.6fs shuffled=%d builds=%d hits=%d; want a warm exec (0, 0, 0, >0)",
			what, rep.PreComputing, rep.TuplesShuffled, rep.TrieBuilds, rep.TrieCacheHits)
	}
}

// requireColdBag asserts an exec re-materialized the bag.
func requireColdBag(t *testing.T, what string, rep Report) {
	t.Helper()
	if rep.PreComputing == 0 || rep.TuplesShuffled == 0 {
		t.Fatalf("%s: pre=%.6fs shuffled=%d; want the pre-compute to run",
			what, rep.PreComputing, rep.TuplesShuffled)
	}
}

// TestSessionWarmBagPlan: the second exec of a plan with a pre-computed
// bag reuses the bag's tries without re-running the joins that
// materialize it, and returns the cold exec's and the one-shot run's rows
// exactly.
func TestSessionWarmBagPlan(t *testing.T) {
	edges := bagGraph()
	want := oneShotRows(t, edges)
	s, err := Open(bagOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", edges); err != nil {
		t.Fatal(err)
	}
	pq := prepareBag(t, s)

	cold, coldRows := execRows(t, pq)
	requireColdBag(t, "cold exec", cold)
	if !coldRows.Equal(want) {
		t.Fatal("cold rows differ from one-shot RunGraph")
	}
	before := s.TrieStoreStats()
	warm, warmRows := execRows(t, pq)
	requireWarmBag(t, "warm exec", warm)
	if !warmRows.Equal(coldRows) {
		t.Fatal("warm rows differ from the cold exec's")
	}
	if after := s.TrieStoreStats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("warm exec store traffic: hits %d -> %d, misses %d -> %d; want hits only",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestSessionWarmBagFallbacks: when the store cannot serve the bag, the
// exec re-runs the pre-compute and stays correct.
func TestSessionWarmBagFallbacks(t *testing.T) {
	t.Run("store too small", func(t *testing.T) {
		edges := bagGraph()
		want := oneShotRows(t, edges)
		opts := bagOpts
		opts.TrieStoreBytes = 1 // admits no block
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
		pq := prepareBag(t, s)
		for exec := 0; exec < 2; exec++ {
			rep, rows := execRows(t, pq)
			requireColdBag(t, "exec over a full store", rep)
			if !rows.Equal(want) {
				t.Fatalf("exec %d rows differ from one-shot RunGraph", exec)
			}
		}
	})

	t.Run("re-registered content", func(t *testing.T) {
		edges := bagGraph()
		s, err := Open(bagOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
		pq := prepareBag(t, s)
		execRows(t, pq)
		warm, _ := execRows(t, pq)
		requireWarmBag(t, "warm exec before re-registering", warm)

		changed := edges.Clone()
		for v := Value(0); v < 6; v++ {
			changed.Append(v, v+1)
		}
		if err := s.Register("edges", changed); err != nil {
			t.Fatal(err)
		}
		want := oneShotRows(t, changed)
		rep, rows := execRows(t, pq)
		if !strings.Contains(rep.Plan, "*") {
			t.Fatalf("premise broken: replanned plan %q pre-computes no bag", rep.Plan)
		}
		requireColdBag(t, "exec over changed content", rep)
		if !rows.Equal(want) {
			t.Fatal("rows over changed content differ from one-shot RunGraph")
		}
		rep, rows = execRows(t, pq)
		requireWarmBag(t, "warm exec over changed content", rep)
		if !rows.Equal(want) {
			t.Fatal("warm rows over changed content differ from one-shot RunGraph")
		}
	})
}

// TestSessionWarmBagServerShared: sessions of one Server share the size
// records with the tries, so session B's first exec of a bag plan session
// A ran cold skips the pre-compute.
func TestSessionWarmBagServerShared(t *testing.T) {
	edges := bagGraph()
	srv := NewServer(ServerOptions{Admission: AdmissionConfig{MaxConcurrent: 2}})
	defer srv.Close()
	var pqs []*PreparedQuery
	for i := 0; i < 2; i++ {
		s, err := srv.OpenShared(bagOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register("edges", edges); err != nil {
			t.Fatal(err)
		}
		pqs = append(pqs, prepareBag(t, s))
	}
	cold, coldRows := execRows(t, pqs[0])
	requireColdBag(t, "session A's cold exec", cold)
	warm, warmRows := execRows(t, pqs[1])
	requireWarmBag(t, "session B's first exec", warm)
	if !warmRows.Equal(coldRows) {
		t.Fatal("session B's rows differ from session A's")
	}
}

// TestSessionWarmBagConcurrent: concurrent warm execs of one bag plan over
// a 4-cluster pool all skip the pre-compute and return the cold rows. Run
// under -race in CI.
func TestSessionWarmBagConcurrent(t *testing.T) {
	opts := bagOpts
	opts.Concurrency = 4
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("edges", bagGraph()); err != nil {
		t.Fatal(err)
	}
	pq := prepareBag(t, s)
	_, want := execRows(t, pq)

	const goroutines, execsEach = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < execsEach; i++ {
				res, err := pq.Exec(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				rep := res.Report()
				if rep.PreComputing != 0 || rep.TuplesShuffled != 0 || rep.TrieBuilds != 0 {
					t.Errorf("concurrent exec: pre=%.6fs shuffled=%d builds=%d; want 0 each",
						rep.PreComputing, rep.TuplesShuffled, rep.TrieBuilds)
					return
				}
				if !res.Rows().Equal(want) {
					t.Error("concurrent exec rows differ from the cold exec's")
					return
				}
			}
		}()
	}
	wg.Wait()
}
