package main

import (
	"math/rand"

	"adj"
	"adj/internal/dataset"
	"adj/internal/relation"
)

// ljGraph generates the LiveJournal-like graph at scale with its generator
// seed replaced by the workload seed.
func ljGraph(seed int64, scale float64) *adj.Relation {
	spec := dataset.SpecOf("LJ", scale)
	spec.Seed = seed
	return dataset.Generate(spec)
}

// subSeed derives the seed of a run's j-th input instance. Instance 0 is
// the workload seed itself; a run that rotates over several instances
// averages out how much one generated instance differs from another.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// pathTriangleQuery is the path-attached triangle: a cyclic core
// R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c), a selective ear P1(c,d) and a large far
// path P2(d,e).
func pathTriangleQuery() adj.Query {
	q, err := adj.ParseQuery("Qpath :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c) ⋈ P1(c,d) ⋈ P2(d,e)")
	if err != nil {
		panic(err) // a constant query text
	}
	return q
}

// pathTriangleDB generates the path-attached-triangle instance from seed:
// a random graph of 10·scale edges over scale/2 nodes for the core, a
// small P1 whose attachment attribute c has few distinct values, and a
// P2 forty times larger than P1. Relations are sets, as the engines
// assume.
func pathTriangleDB(seed int64, scale int) adj.Database {
	rng := rand.New(rand.NewSource(seed))
	nodes := int64(scale / 2)
	tri := relation.New("E", "src", "dst")
	for i := 0; i < 10*scale; i++ {
		tri.Append(relation.Value(rng.Int63n(nodes)), relation.Value(rng.Int63n(nodes)))
	}
	p1 := relation.New("P1", "c", "d")
	p2 := relation.New("P2", "d", "e")
	domain := int64(50 * scale)
	for i := 0; i < scale; i++ {
		p1.Append(relation.Value(rng.Intn(40)), relation.Value(10000+rng.Int63n(domain)))
	}
	for i := 0; i < 40*scale; i++ {
		p2.Append(relation.Value(10000+rng.Int63n(domain)), relation.Value(rng.Int63n(8000)))
	}
	tri = tri.SortDedup()
	return adj.Database{"R1": tri, "R2": tri, "R3": tri, "P1": p1.SortDedup(), "P2": p2.SortDedup()}
}

// versionChain derives n versions of g: version 0 is g, and each later
// version deletes `delta` random edges of its predecessor and inserts
// `delta` new edges between existing nodes.
func versionChain(seed int64, g *adj.Relation, n, delta int) []*adj.Relation {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var nodes []adj.Value
	seen := make(map[adj.Value]bool)
	cols := g.Columns()
	for _, col := range cols {
		for _, v := range col {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	out := []*adj.Relation{g}
	for len(out) < n {
		prev := out[len(out)-1]
		pc := prev.Columns()
		m := prev.Len()
		edges := make(map[[2]adj.Value]bool, m+delta)
		for i := 0; i < m; i++ {
			edges[[2]adj.Value{pc[0][i], pc[1][i]}] = true
		}
		for d := 0; d < delta; {
			i := rng.Intn(m)
			e := [2]adj.Value{pc[0][i], pc[1][i]}
			if edges[e] {
				delete(edges, e)
				d++
			}
		}
		for d := 0; d < delta; {
			e := [2]adj.Value{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
			if e[0] != e[1] && !edges[e] {
				edges[e] = true
				d++
			}
		}
		next := relation.NewWithCapacity(g.Name, len(edges), g.Attrs...)
		for e := range edges {
			next.Append(e[0], e[1])
		}
		out = append(out, next.Sort())
	}
	return out
}
