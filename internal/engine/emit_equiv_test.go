package engine

import (
	"math/rand"
	"testing"

	"adj/internal/hypergraph"
	"adj/internal/relation"
	"adj/internal/testutil"
)

// The batched columnar result sink must list exactly the natural join
// across all engines: same result count and, as a set, the same tuples as
// an independent hash-join oracle, with no duplicates. Sequential and
// parallel scheduling must materialize identical relations row for row
// (cube outputs fold in deterministic cube order in both modes). The
// Leapfrog engines must additionally report nonzero emitted-run counters —
// proof the batched path engaged rather than silently degrading to
// per-tuple delivery.
func TestSinkOutputMatchesOracleAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 3; iter++ {
		edges := testutil.RandEdges(rng, "E", 250+150*iter, int64(20+5*iter))
		for _, q := range []hypergraph.Query{hypergraph.Q1(), hypergraph.Q2()} {
			rels := q.BindGraph(edges)
			joined := relation.JoinAll(rels)
			for name, run := range Engines() {
				var seqOut *relation.Relation
				for _, sequential := range []bool{true, false} {
					cfg := smallCfg(3)
					cfg.CubesPerServer = 2
					cfg.Sequential = sequential
					cfg.CollectOutput = true
					rep, err := run(q, rels, cfg)
					if err != nil {
						t.Fatalf("iter=%d %s/%s seq=%v: %v", iter, name, q.Name, sequential, err)
					}
					out := rep.Output
					if out == nil {
						t.Fatalf("iter=%d %s/%s seq=%v: missing output", iter, name, q.Name, sequential)
					}
					if int64(out.Len()) != rep.Results {
						t.Fatalf("iter=%d %s/%s: output %d tuples, results=%d",
							iter, name, q.Name, out.Len(), rep.Results)
					}
					oracle := joined.Project(out.Attrs...)
					if got := out.Clone().SortDedup(); got.Len() != out.Len() || !got.Equal(oracle) {
						t.Fatalf("iter=%d %s/%s seq=%v: output (%d tuples) differs from the hash-join oracle (%d tuples)",
							iter, name, q.Name, sequential, out.Len(), oracle.Len())
					}
					if sequential {
						seqOut = out
					} else if !out.Equal(seqOut) {
						t.Fatalf("iter=%d %s/%s: parallel output differs from sequential row for row",
							iter, name, q.Name)
					}
					// Leapfrog engines must show batched emission engaged.
					switch name {
					case "ADJ", "HCubeJ", "HCubeJ+Cache":
						if rep.Results > 0 && rep.EmittedRuns == 0 {
							t.Fatalf("iter=%d %s/%s: %d results but zero emitted runs",
								iter, name, q.Name, rep.Results)
						}
						if rep.EmittedValues != rep.Results {
							t.Fatalf("iter=%d %s/%s: emitted values=%d, results=%d",
								iter, name, q.Name, rep.EmittedValues, rep.Results)
						}
					}
				}
			}
		}
	}
}
