package engine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"adj/internal/cluster"
	"adj/internal/relation"
)

// distributedJoin computes A ⋈ B over worker fragments: both sides are
// hash-partitioned on their shared attributes, each worker joins its
// partitions locally, and the result fragments are stored as outName. This
// is the kernel of the SparkSQL-style BinaryJoin baseline and of ADJ's bag
// pre-computation. Returns the global result size.
//
// With no shared attributes the smaller side is broadcast (a cross
// product; rare, but required for generality).
func distributedJoin(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string, budget int64) (int64, error) {

	shared := sharedAttrs(aAttrs, bAttrs)
	if len(shared) == 0 {
		return distributedCross(c, phase, aName, aAttrs, bName, bAttrs, outName, budget)
	}
	aCols := attrIdx(aAttrs, shared)
	bCols := attrIdx(bAttrs, shared)

	errJoin := c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			for _, side := range []struct {
				name  string
				attrs []string
				cols  []int
				tag   string
			}{
				{aName, aAttrs, aCols, "L"},
				{bName, bAttrs, bCols, "R"},
			} {
				frag, ok := w.Rels[side.name]
				if !ok {
					continue
				}
				parts := frag.PartitionBy(side.cols, w.N)
				for to, p := range parts {
					if p.Len() == 0 {
						continue
					}
					to := to
					key := side.tag + "/" + side.name + "/" + strconv.Itoa(to)
					err := w.EncodeRelationChunks(p, 0, func(payload []byte, lo, hi, chunk int) error {
						return s.Send(cluster.Envelope{
							To:      to,
							Key:     key,
							Chunk:   int32(chunk),
							Payload: payload,
							Tuples:  int64(hi - lo),
							Weight:  partWeight(chunk),
						})
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			in := []*relation.Relation{relation.New(aName, aAttrs...), relation.New(bName, bAttrs...)}
			if err := recvBySender(r, "binary join exchange", []string{"L", "R"}, in); err != nil {
				return err
			}
			res, err := relation.HashJoinLimit(in[0], in[1], int(budget))
			if err != nil {
				return ErrBudget
			}
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
	if errJoin != nil {
		if errors.Is(errJoin, ErrBudget) {
			return 0, ErrBudget
		}
		return 0, errJoin
	}
	size := c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(outName)) })
	if budget > 0 && size > budget {
		return size, ErrBudget
	}
	return size, nil
}

// distributedCross broadcasts the smaller side and joins locally.
func distributedCross(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string, budget int64) (int64, error) {

	aSize := c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(aName)) })
	bSize := c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(bName)) })
	small, smallAttrs := bName, bAttrs
	big, bigAttrs := aName, aAttrs
	if aSize < bSize {
		small, smallAttrs = aName, aAttrs
		big, bigAttrs = bName, bAttrs
	}
	err := c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			frag, ok := w.Rels[small]
			if !ok || frag.Len() == 0 {
				return nil
			}
			return w.EncodeRelationChunks(frag, 0, func(payload []byte, lo, hi, chunk int) error {
				for to := 0; to < w.N; to++ {
					if err := s.Send(cluster.Envelope{
						To: to, Key: "B/" + small, Chunk: int32(chunk),
						Payload: payload, Tuples: int64(hi - lo), Weight: partWeight(chunk),
					}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			in := []*relation.Relation{relation.New(small, smallAttrs...)}
			if err := recvBySender(r, "binary join exchange", []string{"B"}, in); err != nil {
				return err
			}
			smallRel := in[0]
			bigRel, ok := w.Rels[big]
			if !ok {
				bigRel = relation.New(big, bigAttrs...)
			}
			var res *relation.Relation
			if big == aName {
				res = relation.HashJoin(bigRel, smallRel)
			} else {
				res = relation.HashJoin(smallRel, bigRel)
			}
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
	if err != nil {
		return 0, err
	}
	size := c.GatherCounts(func(w *cluster.Worker) int64 { return int64(w.LocalSize(outName)) })
	if budget > 0 && size > budget {
		return size, ErrBudget
	}
	return size, nil
}

// distributedSemijoin computes A ⋉ B over worker fragments: A is
// hash-partitioned on the shared attributes, B's projection onto them
// (deduplicated per fragment to cut volume) is partitioned the same way,
// and each worker keeps the A tuples with a match. The result fragments
// are stored as outName. This is the hybrid plan's pre-reduction: a
// selective acyclic fragment shrinks a cyclic-core relation before the
// core is shuffled.
func distributedSemijoin(c *cluster.Cluster, phase string, aName string, aAttrs []string,
	bName string, bAttrs []string, outName string) error {

	shared := sharedAttrs(aAttrs, bAttrs)
	if len(shared) == 0 {
		return fmt.Errorf("distributedSemijoin: %s and %s share no attributes", aName, bName)
	}
	aCols := attrIdx(aAttrs, shared)

	return c.StreamExchange(phase,
		func(w *cluster.Worker, s cluster.StreamSender) error {
			if frag, ok := w.Rels[aName]; ok {
				if err := sendParts(w, s, frag.PartitionBy(aCols, w.N), "L"); err != nil {
					return err
				}
			}
			if frag, ok := w.Rels[bName]; ok {
				proj := frag.ProjectMulti(shared...).SortDedup()
				if err := sendParts(w, s, proj.PartitionBy(attrIdx(shared, shared), w.N), "R"); err != nil {
					return err
				}
			}
			return nil
		},
		func(w *cluster.Worker, r cluster.StreamReceiver) error {
			in := []*relation.Relation{relation.New(aName, aAttrs...), relation.New(bName, shared...)}
			if err := recvBySender(r, "semijoin exchange", []string{"L", "R"}, in); err != nil {
				return err
			}
			res := in[0].Semijoin(in[1], shared)
			res.Name = outName
			w.Rels[outName] = res
			return nil
		})
}

// recvBySender drains r and decodes, for each i, the chunks whose key is
// keys[i] (or starts with keys[i]+"/") onto dsts[i] in ascending sender
// order; any other key is an error. A nil dsts[i] takes the schema of its
// first chunk and stays nil when none arrives. Payloads are copied as they
// land (transports reuse receive buffers) and decoded once the stream
// ends. Every transport delivers one sender's chunks in send order, so the
// rows come out exactly as a sequential exchange orders
// them, whatever the goroutine schedule interleaves on the wire. what
// names the exchange in errors.
func recvBySender(r cluster.StreamReceiver, what string, keys []string, dsts []*relation.Relation) error {
	type chunk struct {
		from    int
		payload []byte
	}
	slots := make([][]chunk, len(keys))
	for {
		e, ok, err := r.Recv()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		slot := -1
		for i, k := range keys {
			if e.Key == k || strings.HasPrefix(e.Key, k+"/") {
				slot = i
				break
			}
		}
		if slot < 0 {
			return fmt.Errorf("%s: bad key %q", what, e.Key)
		}
		slots[slot] = append(slots[slot], chunk{e.From, append([]byte(nil), e.Payload...)})
	}
	var scratch relation.Relation
	for i, chunks := range slots {
		sort.SliceStable(chunks, func(x, y int) bool { return chunks[x].from < chunks[y].from })
		for _, c := range chunks {
			if err := relation.DecodeInto(c.payload, &scratch); err != nil {
				return cluster.CorruptPayload(what, err)
			}
			if dsts[i] == nil {
				dsts[i] = relation.New(scratch.Name, scratch.Attrs...)
			}
			dsts[i].AppendAll(&scratch)
		}
	}
	return nil
}

// partWeight is the message weight of a partition chunk: the first chunk
// carries the envelope's single logical message, continuations ride free —
// so Messages counts are invariant to chunk granularity.
func partWeight(chunk int) int64 {
	if chunk > 0 {
		return cluster.WeightContinuation
	}
	return 0
}

// sendParts streams one hash-partitioned relation: part i goes to worker i
// in bounded chunks under the given envelope key.
func sendParts(w *cluster.Worker, s cluster.StreamSender, parts []*relation.Relation, key string) error {
	for to, p := range parts {
		if p.Len() == 0 {
			continue
		}
		to := to
		err := w.EncodeRelationChunks(p, 0, func(payload []byte, lo, hi, chunk int) error {
			return s.Send(cluster.Envelope{
				To:      to,
				Key:     key,
				Chunk:   int32(chunk),
				Payload: payload,
				Tuples:  int64(hi - lo),
				Weight:  partWeight(chunk),
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func sharedAttrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func attrIdx(attrs, want []string) []int {
	out := make([]int, len(want))
	for i, wa := range want {
		out[i] = -1
		for j, a := range attrs {
			if a == wa {
				out[i] = j
				break
			}
		}
	}
	return out
}

// joinedAttrs returns the output schema of A ⋈ B.
func joinedAttrs(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, x := range b {
		found := false
		for _, y := range a {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}
