package main

import (
	"fmt"
	"sort"

	"adj"
	"adj/internal/leapfrog"
	"adj/internal/relation"
)

// answer is what an operation's output is checked against: the result
// count, and an order-independent digest of the result multiset (the sum
// of one hash per row, with each row read in sorted-attribute order).
type answer struct {
	Count  int64
	Digest uint64
}

// rowHasher hashes rows whose values arrive in some attribute order into
// the canonical (sorted-attribute) order, so two engines that emit the
// same rows under different attribute orders digest equally.
type rowHasher struct {
	perm []int // perm[c] = position in the arriving order of canonical attr c
	row  []adj.Value
}

func newRowHasher(attrs []string) *rowHasher {
	canon := append([]string(nil), attrs...)
	sort.Strings(canon)
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	h := &rowHasher{perm: make([]int, len(canon)), row: make([]adj.Value, len(attrs))}
	for c, a := range canon {
		h.perm[c] = pos[a]
	}
	return h
}

// hash returns the hash of h.row.
func (h *rowHasher) hash() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, p := range h.perm {
		x = mix64(x ^ uint64(h.row[p]))
	}
	return x
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestSink is a leapfrog.Sink folding every result row into an answer.
type digestSink struct {
	h     *rowHasher
	depth int
	ans   answer
}

func (d *digestSink) BeginRun(prefix []adj.Value) {
	d.depth = copy(d.h.row, prefix)
}

func (d *digestSink) AppendRun(vals []adj.Value) {
	for _, v := range vals {
		d.h.row[d.depth] = v
		d.ans.Digest += d.h.hash()
	}
	d.ans.Count += int64(len(vals))
}

// reference evaluates q over its bound relations with single-node
// Leapfrog and returns the expected answer.
func reference(q adj.Query, rels []*relation.Relation) (answer, error) {
	order := q.Attrs()
	sink := &digestSink{h: newRowHasher(order)}
	st, err := leapfrog.JoinRelations(rels, order, leapfrog.Options{Sink: sink})
	if err != nil {
		return answer{}, fmt.Errorf("reference %s: %w", q.Name, err)
	}
	if st.Results != sink.ans.Count {
		return answer{}, fmt.Errorf("reference %s: sink saw %d rows, join counted %d", q.Name, sink.ans.Count, st.Results)
	}
	return sink.ans, nil
}

// digestResults drains res from its first run and digests the rows.
func digestResults(res *adj.Results) answer {
	res.Reset()
	var ans answer
	attrs := res.Attrs()
	if attrs == nil {
		return answer{Count: res.Count()}
	}
	h := newRowHasher(attrs)
	for {
		prefix, vals, ok := res.NextRun()
		if !ok {
			break
		}
		k := copy(h.row, prefix)
		for _, v := range vals {
			h.row[k] = v
			ans.Digest += h.hash()
		}
		ans.Count += int64(len(vals))
	}
	return ans
}

// drain iterates every result run — what a client reading the results
// does — and returns the number of rows seen.
func drain(res *adj.Results) int64 {
	var n int64
	for {
		_, vals, ok := res.NextRun()
		if !ok {
			return n
		}
		n += int64(len(vals))
	}
}

// check compares an operation's output with the reference: counts always,
// digests when the rows were drained.
func check(res *adj.Results, want answer, drained bool) error {
	if res.Err() != nil {
		return res.Err()
	}
	if !drained {
		if got := res.Count(); got != want.Count {
			return fmt.Errorf("count %d, reference %d", got, want.Count)
		}
		return nil
	}
	got := digestResults(res)
	if got != want {
		return fmt.Errorf("rows %d digest %016x, reference %d digest %016x", got.Count, got.Digest, want.Count, want.Digest)
	}
	if res.Count() != want.Count {
		return fmt.Errorf("report counts %d rows, reference %d", res.Count(), want.Count)
	}
	return nil
}
