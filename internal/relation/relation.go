// Package relation implements the relational substrate of ADJ: schemas,
// typed tuples stored column-major (one value slice per attribute), and the
// operations the join engines need (sort, dedup, project, semijoin, hash
// partitioning).
//
// Values are int64. A Relation is a multiset of fixed-arity tuples over a
// named schema; most operations return new relations and leave the receiver
// untouched, matching the immutable dataflow style of the distributed
// runtime (package cluster). Read accessors never write to the relation, so
// any number of goroutines may read one relation concurrently.
package relation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Value is the domain of every attribute. Graph datasets use vertex ids.
type Value = int64

// Tuple is a single row of values in schema order.
type Tuple = []Value

// Relation is a multiset of tuples with a fixed schema.
//
// Tuples are stored column-major: cols[j] holds attribute Attrs[j] of every
// tuple in tuple order, and all columns have the same length. The hot
// consumers read one column at a time — the trie builder's radix passes,
// the shuffle codec's per-column delta runs and the hash partitioner — so
// each is a sequential scan. Tuple-at-a-time callers gather a row with Row
// and add one with Append.
type Relation struct {
	Name  string
	Attrs []string
	cols  [][]Value
}

// New returns an empty relation with the given name and schema.
func New(name string, attrs ...string) *Relation {
	return &Relation{Name: name, Attrs: append([]string(nil), attrs...), cols: make([][]Value, len(attrs))}
}

// NewWithCapacity returns an empty relation pre-sized for n tuples.
func NewWithCapacity(name string, n int, attrs ...string) *Relation {
	r := New(name, attrs...)
	for j := range r.cols {
		r.cols[j] = make([]Value, 0, n)
	}
	return r
}

// FromTuples builds a relation from explicit rows. Rows are copied.
func FromTuples(name string, attrs []string, rows [][]Value) *Relation {
	r := NewWithCapacity(name, len(rows), attrs...)
	for _, row := range rows {
		r.AppendTuple(row)
	}
	return r
}

// FromEdges builds a binary relation over (src, dst) attribute names from an
// edge list, the representation used for all graph datasets in the paper.
func FromEdges(name, srcAttr, dstAttr string, edges [][2]Value) *Relation {
	src := make([]Value, len(edges))
	dst := make([]Value, len(edges))
	for i, e := range edges {
		src[i], dst[i] = e[0], e[1]
	}
	return FromColumns(name, []string{srcAttr, dstAttr}, [][]Value{src, dst})
}

// FromColumns builds a relation taking ownership of cols (one slice per
// attribute, all the same length).
func FromColumns(name string, attrs []string, cols [][]Value) *Relation {
	checkColumns(name, len(attrs), cols)
	return &Relation{Name: name, Attrs: append([]string(nil), attrs...), cols: cols}
}

// checkColumns validates a caller-supplied column batch: one slice per
// attribute, all the same length. Shared by FromColumns, SetColumns and
// AppendColumns so the contract cannot drift between them.
func checkColumns(name string, nattrs int, cols [][]Value) {
	if len(cols) != nattrs {
		panic(fmt.Sprintf("relation %q: %d columns != %d attrs", name, len(cols), nattrs))
	}
	for j := 1; j < len(cols); j++ {
		if len(cols[j]) != len(cols[0]) {
			panic(fmt.Sprintf("relation %q: column %d length %d != column 0 length %d", name, j, len(cols[j]), len(cols[0])))
		}
	}
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// Columns returns the per-attribute value slices (read-only by convention).
// Column j holds attribute Attrs[j] for every tuple in tuple order.
func (r *Relation) Columns() [][]Value { return r.cols }

// Column returns the values of column j (read-only by convention).
func (r *Relation) Column(j int) []Value { return r.cols[j] }

// Row gathers the i-th tuple into dst, reusing its capacity, and returns
// it. The result never aliases the relation's storage.
func (r *Relation) Row(i int, dst []Value) []Value {
	dst = dst[:0]
	for _, col := range r.cols {
		dst = append(dst, col[i])
	}
	return dst
}

// Append adds one row. It panics if the arity does not match the schema:
// that is always a programming error, never a data error.
func (r *Relation) Append(vals ...Value) { r.AppendTuple(vals) }

// AppendTuple adds one row without the variadic copy.
func (r *Relation) AppendTuple(t Tuple) {
	if len(t) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %q: append arity %d != schema arity %d", r.Name, len(t), len(r.Attrs)))
	}
	cols := r.mutableCols()
	for j, v := range t {
		cols[j] = append(cols[j], v)
	}
}

// AppendAll concatenates all tuples of s (same arity required) onto r,
// one column at a time.
func (r *Relation) AppendAll(s *Relation) {
	if len(s.Attrs) != len(r.Attrs) {
		panic(fmt.Sprintf("relation %q: appendAll arity %d != %d", r.Name, len(s.Attrs), len(r.Attrs)))
	}
	if s.Len() == 0 {
		return
	}
	cols := r.mutableCols()
	for j := range cols {
		cols[j] = append(cols[j], s.cols[j]...)
	}
}

// AppendColumns appends one batch of column slices (aligned with Attrs,
// equal lengths) column-wise.
func (r *Relation) AppendColumns(cols [][]Value) {
	checkColumns(r.Name, len(r.Attrs), cols)
	dst := r.mutableCols()
	for j := range dst {
		dst[j] = append(dst[j], cols[j]...)
	}
}

// SetColumns replaces the tuple storage with the given columns. Takes
// ownership of cols.
func (r *Relation) SetColumns(cols [][]Value) {
	checkColumns(r.Name, len(r.Attrs), cols)
	r.cols = cols
}

// mutableCols returns the column headers ready for appends, allocating
// them for a zero Relation whose schema was assigned directly.
func (r *Relation) mutableCols() [][]Value {
	if r.cols == nil {
		r.cols = make([][]Value, len(r.Attrs))
	}
	return r.cols
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	cols := make([][]Value, len(r.cols))
	for j, c := range r.cols {
		cols[j] = append([]Value(nil), c...)
	}
	return &Relation{Name: r.Name, Attrs: append([]string(nil), r.Attrs...), cols: cols}
}

// Renamed returns a shallow copy with a different name: column contents
// are shared, but the Attrs slice and the outer column-header slice are
// copied, so a schema mutation or a length-changing operation (append,
// dedup) on one relation cannot alias the other.
func (r *Relation) Renamed(name string) *Relation {
	return &Relation{Name: name, Attrs: append([]string(nil), r.Attrs...), cols: append([][]Value(nil), r.cols...)}
}

// AttrIndex returns the position of attribute a in the schema, or -1.
func (r *Relation) AttrIndex(a string) int {
	for i, x := range r.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// HasAttr reports whether a is part of the schema.
func (r *Relation) HasAttr(a string) bool { return r.AttrIndex(a) >= 0 }

// SizeBytes returns the in-memory payload size (8 bytes per value), the unit
// the cost model charges for communication.
func (r *Relation) SizeBytes() int64 { return int64(r.Len()*r.Arity()) * 8 }

// String renders a compact human-readable form (used by tests and the CLI).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d tuples]", r.Name, strings.Join(r.Attrs, ","), r.Len())
	n := min(r.Len(), 8)
	var row []Value
	for i := 0; i < n; i++ {
		row = r.Row(i, row)
		fmt.Fprintf(&b, "\n  %v", row)
	}
	if r.Len() > n {
		fmt.Fprintf(&b, "\n  ... (%d more)", r.Len()-n)
	}
	return b.String()
}

// Sort orders tuples lexicographically in place and returns the receiver.
func (r *Relation) Sort() *Relation { return r.sortBy(r.cols) }

// SortByColumns orders tuples in place by the given column priority list:
// first compare column cols[0], then cols[1], etc. Columns not listed break
// the remaining ties in schema order, which makes the sort total.
func (r *Relation) SortByColumns(cols []int) *Relation {
	keys := make([][]Value, 0, len(r.cols))
	seen := make([]bool, len(r.cols))
	for _, c := range cols {
		keys = append(keys, r.cols[c])
		seen[c] = true
	}
	for c, col := range r.cols {
		if !seen[c] {
			keys = append(keys, col)
		}
	}
	return r.sortBy(keys)
}

// sortBy sorts the tuples in place by comparing the key columns in order.
// Input that is already sorted is detected with one scan and left alone;
// otherwise it sorts a row-index permutation (comparisons resolve in the
// first key column almost always) and applies it to each column with one
// sequential write pass.
func (r *Relation) sortBy(keys [][]Value) *Relation {
	n := r.Len()
	if n < 2 {
		return r
	}
	// The first key column decides almost every comparison, so it is
	// compared inline before falling back to the rest.
	first, rest := keys[0], keys[1:]
	compare := func(a, b int32) int {
		if c := cmp.Compare(first[a], first[b]); c != 0 {
			return c
		}
		for _, col := range rest {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
		}
		return 0
	}
	sorted := true
	for i := int32(1); i < int32(n) && sorted; i++ {
		sorted = compare(i-1, i) <= 0
	}
	if sorted {
		return r
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, compare)
	tmp := make([]Value, n)
	for _, col := range r.cols {
		for i, p := range idx {
			tmp[i] = col[p]
		}
		copy(col, tmp)
	}
	return r
}

// Dedup removes adjacent duplicate tuples in place. The relation must be
// sorted (in any total order). Returns the receiver.
func (r *Relation) Dedup() *Relation {
	n := r.Len()
	if n < 2 {
		return r
	}
	cols := r.cols
	w := 1
	for i := 1; i < n; i++ {
		dup := true
		for _, c := range cols {
			if c[i] != c[w-1] {
				dup = false
				break
			}
		}
		if dup {
			continue
		}
		if w != i {
			for _, c := range cols {
				c[w] = c[i]
			}
		}
		w++
	}
	for j := range cols {
		cols[j] = cols[j][:w]
	}
	return r
}

// SortDedup sorts lexicographically then removes duplicates.
func (r *Relation) SortDedup() *Relation { return r.Sort().Dedup() }

// Equal reports whether two relations have identical schema and identical
// tuple sequences (order-sensitive; sort both first for multiset equality).
func (r *Relation) Equal(s *Relation) bool {
	if !slices.Equal(r.Attrs, s.Attrs) || r.Len() != s.Len() {
		return false
	}
	if r.Len() == 0 {
		return true
	}
	for j := range r.cols {
		if !slices.Equal(r.cols[j], s.cols[j]) {
			return false
		}
	}
	return true
}
