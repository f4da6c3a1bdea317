package main

import (
	"fmt"
	"sort"

	"adj"
	"adj/internal/costmodel"
	"adj/internal/leapfrog"
	"adj/internal/optimizer"
	"adj/internal/relation"
	"adj/internal/sampling"
	"adj/internal/trie"
)

// kernelCase is one query of a workload over its bound relations, fed
// directly to the internal layers' exported functions.
type kernelCase struct {
	q    adj.Query
	rels []*relation.Relation
	// join names the two atoms the hash-join kernel joins.
	join [2]int
	// stored lists the distinct relations behind rels, as the program
	// stores and ships them; the codec kernels run on these.
	stored []*relation.Relation
}

// kernelStats are the work counts the kernel pass measures beside its
// spans.
type kernelStats struct {
	encodedBytes, encodedTuples int64
}

// runKernels calls each layer's exported function on every case, one span
// per call, under the root span of operation op. These are the layer
// timings a span inside the program would give; they run outside the
// timed operations.
func runKernels(tr *tracer, op int64, cases []kernelCase, samples int) (kernelStats, error) {
	var ks kernelStats
	root := tr.begin("bench.kernels", 0, op)
	defer root.end()
	params := costmodel.DefaultParams(workers)
	var buf []byte
	for _, c := range cases {
		sp := tr.begin("sampling.estimate", root.ID, op)
		_, err := sampling.EstimateCardinality(c.rels, c.q.Attrs(), sampling.Config{Samples: samples, Seed: 1})
		sp.end()
		if err != nil {
			return ks, fmt.Errorf("kernel sampling %s: %w", c.q.Name, err)
		}

		sp = tr.begin("optimizer.coopt", root.ID, op)
		o, err := optimizer.New(c.q, c.rels, optimizer.Options{Params: params, Samples: samples, Seed: 1})
		var plan *optimizer.Plan
		if err == nil {
			plan, err = o.CoOptimize()
		}
		sp.end()
		if err != nil {
			return ks, fmt.Errorf("kernel optimizer %s: %w", c.q.Name, err)
		}
		order := plan.AttrOrder

		for _, r := range c.stored {
			sp = tr.begin("relation.encode", root.ID, op)
			buf = relation.AppendEncode(buf[:0], r)
			sp.end()
			dst, scratch := relation.New(r.Name, r.Attrs...), relation.New(r.Name, r.Attrs...)
			sp = tr.begin("relation.decode", root.ID, op)
			err := relation.DecodeAppend(buf, dst, scratch)
			sp.end()
			if err != nil {
				return ks, fmt.Errorf("kernel decode %s: %w", r.Name, err)
			}
			if dst.Len() != r.Len() {
				return ks, fmt.Errorf("kernel decode %s: %d tuples, encoded %d", r.Name, dst.Len(), r.Len())
			}
			ks.encodedBytes += int64(len(buf))
			ks.encodedTuples += int64(r.Len())
		}

		sp = tr.begin("relation.hashjoin", root.ID, op)
		relation.HashJoin(c.rels[c.join[0]], c.rels[c.join[1]])
		sp.end()

		pos := make(map[string]int, len(order))
		for i, a := range order {
			pos[a] = i
		}
		tries := make([]*trie.Trie, len(c.rels))
		b := trie.NewBuilder()
		sp = tr.begin("trie.build", root.ID, op)
		for i, r := range c.rels {
			attrs := append([]string(nil), r.Attrs...)
			sort.Slice(attrs, func(x, y int) bool { return pos[attrs[x]] < pos[attrs[y]] })
			tries[i] = b.Build(r, attrs)
		}
		sp.end()

		sp = tr.begin("leapfrog.join", root.ID, op)
		_, err = leapfrog.Join(tries, order, leapfrog.Options{})
		sp.end()
		if err != nil {
			return ks, fmt.Errorf("kernel leapfrog %s: %w", c.q.Name, err)
		}
	}
	return ks, nil
}

// graphCase binds a graph query to its edge relation for the kernels; the
// hash join joins its first two atoms.
func graphCase(q adj.Query, g *adj.Relation) kernelCase {
	return kernelCase{q: q, rels: q.BindGraph(g), join: [2]int{0, 1}, stored: []*relation.Relation{g}}
}
