package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"adj/internal/cluster"
	"adj/internal/hcube"
	"adj/internal/hypergraph"
	"adj/internal/testutil"
)

// detReport extracts the deterministic slice of a Report: result count,
// the full shuffle/message accounting, the block-cache structure counters
// and the sorted materialized output. Everything here must be invariant
// under scheduling mode and cube fan-out; only the measured seconds may
// differ between runs.
func detReport(t *testing.T, rep Report) string {
	t.Helper()
	out := ""
	if rep.Output != nil {
		out = rep.Output.Clone().SortDedup().String()
	}
	return fmt.Sprintf("results=%d failed=%v(%s) tuples=%d bytes=%d msgs=%d blocks=%d out=%s",
		rep.Results, rep.Failed, rep.FailReason,
		rep.TuplesShuffled, rep.BytesShuffled, rep.Messages, rep.CacheBlocks, out)
}

// The cached/scheduled execution path must be invisible in every
// deterministic report field: across all five engines, parallel scheduling
// (locality deques + stealing) vs Config.Sequential, and cube fan-outs 1
// and 4, the results, materialized outputs and cost-accounting counters
// must be identical.
func TestCacheSchedulerEquivalenceAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for iter := 0; iter < 3; iter++ {
		edges := testutil.RandEdges(rng, "E", 300+200*iter, int64(25+5*iter))
		for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2()} {
			rels := q.BindGraph(edges)
			for name, run := range Engines() {
				var want string
				for _, cps := range []int{1, 4} {
					for _, sequential := range []bool{true, false} {
						cfg := smallCfg(3)
						cfg.CubesPerServer = cps
						cfg.Sequential = sequential
						cfg.CollectOutput = true
						rep, err := run(q, rels, cfg)
						if err != nil {
							t.Fatalf("iter=%d %s/%s cps=%d seq=%v: %v", iter, name, q.Name, cps, sequential, err)
						}
						// CubesPerServer changes the shuffle (finer cubes), so
						// only compare across scheduling modes within a fan-out;
						// result counts must agree across everything.
						got := detReport(t, rep)
						if sequential {
							want = got
							continue
						}
						if got != want {
							t.Fatalf("iter=%d %s/%s cps=%d: parallel differs from sequential:\n  seq: %s\n  par: %s",
								iter, name, q.Name, cps, want, got)
						}
					}
				}
			}
			// All engines and fan-outs agree on the count.
			var counts []int64
			for name, run := range Engines() {
				for _, cps := range []int{1, 4} {
					cfg := smallCfg(3)
					cfg.CubesPerServer = cps
					rep, err := run(q, rels, cfg)
					if err != nil {
						t.Fatalf("%s cps=%d: %v", name, cps, err)
					}
					counts = append(counts, rep.Results)
				}
			}
			for _, c := range counts[1:] {
				if c != counts[0] {
					t.Fatalf("iter=%d %s: engines disagree: %v", iter, q.Name, counts)
				}
			}
		}
	}
}

// Cached tries must equal rebuilt tries: for random instances and every
// shuffle kind, the per-cube tries assembled lazily from the shared block
// cache must enumerate exactly the tuples of the other kinds' cubes (Push
// and Pull rebuild from raw tuple blocks, Merge merges pre-built tries —
// three independent construction paths, one answer).
func TestCachedVsRebuiltCubeTries(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 10; iter++ {
		q, rels := testutil.RandQueryInstance(rng, 3, 4, 40, 8)
		order := q.Attrs()
		info := hcube.InfoOf(rels)
		n := 2 + rng.Intn(3)
		shares, err := hcube.Optimize(info, hcube.Config{
			Attrs: order, NumServers: n,
			MaxCubes: 2 * n, MinCubes: 2 * n, // force multi-cube workers
		})
		if err != nil {
			t.Fatal(err)
		}
		snaps := make(map[hcube.Kind]map[string]string)
		for _, kind := range []hcube.Kind{hcube.Push, hcube.Pull, hcube.Merge} {
			c := cluster.New(cluster.Config{N: n, Sequential: true})
			c.LoadDatabase(rels)
			if err := hcube.Run(c, "shuffle", hcube.Plan{
				Shares: shares, Rels: info, Kind: kind, TrieOrder: order,
			}, nil); err != nil {
				t.Fatal(err)
			}
			snap := make(map[string]string)
			for _, w := range c.Workers {
				for _, cube := range allCubes(w) {
					tries, err := cubeTries(w, cube, info, order)
					if err != nil {
						t.Fatal(err)
					}
					for i, tr := range tries {
						snap[fmt.Sprintf("%s/%d", info[i].Name, cube)] = tr.ToRelation("x").String()
					}
				}
				// The cache invariant: every deposited block built at most
				// once (exactly once when all cubes were materialized above).
				st := w.Blocks.Stats()
				if st.Builds > st.Blocks {
					t.Fatalf("kind=%v worker=%d: %d builds for %d blocks", kind, w.ID, st.Builds, st.Blocks)
				}
			}
			snaps[kind] = snap
			c.Close()
		}
		for _, kind := range []hcube.Kind{hcube.Pull, hcube.Merge} {
			if len(snaps[kind]) != len(snaps[hcube.Push]) {
				t.Fatalf("iter=%d: %v has %d cube tries, push has %d",
					iter, kind, len(snaps[kind]), len(snaps[hcube.Push]))
			}
			for k, v := range snaps[hcube.Push] {
				if snaps[kind][k] != v {
					t.Fatalf("iter=%d: cube trie %s differs between push and %v:\n  push: %s\n  %v: %s",
						iter, k, kind, v, kind, snaps[kind][k])
				}
			}
		}
	}
}

// With multiple cubes per server on a shared-block workload the cache must
// actually be hit: blocks shared across cubes are built once and reused.
func TestCacheHitsWithCubeFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := testutil.RandEdges(rng, "E", 1500, 45)
	q := hypergraph.Q1()
	rels := q.BindGraph(edges)
	cfg := smallCfg(4)
	cfg.CubesPerServer = 4
	rep, err := RunADJ(q, rels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheBlocks == 0 {
		t.Fatal("no blocks deposited in the cache")
	}
	if rep.TrieBuilds != rep.CacheBlocks {
		t.Fatalf("trie builds=%d, blocks=%d: each block must be built exactly once",
			rep.TrieBuilds, rep.CacheBlocks)
	}
	if rep.TrieCacheHits == 0 {
		t.Fatal("cube fan-out with shared blocks produced zero cache hits")
	}
}
