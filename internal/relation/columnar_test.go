package relation

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomRelation builds a random relation with the given arity.
func randomRelation(rng *rand.Rand, name string, arity, n, domain int) *Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	r := New(name, attrs...)
	for i := 0; i < n; i++ {
		row := make([]Value, arity)
		for j := range row {
			row[j] = Value(rng.Intn(domain))
		}
		r.AppendTuple(row)
	}
	return r
}

// TestColumnsTransposeRoundtrip: rows appended one at a time come back as
// per-attribute columns, Row gathers them back into the original tuples,
// and a later Append extends every column.
func TestColumnsTransposeRoundtrip(t *testing.T) {
	rows := [][]Value{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	r := FromTuples("R", []string{"a", "b", "c"}, rows)
	cols := r.Columns()
	if len(cols) != 3 {
		t.Fatalf("columns=%d", len(cols))
	}
	for j, want := range [][]Value{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}} {
		if !slices.Equal(cols[j], want) {
			t.Fatalf("col %d = %v, want %v", j, cols[j], want)
		}
	}
	var row []Value
	for i, want := range rows {
		if row = r.Row(i, row); !slices.Equal(row, want) {
			t.Fatalf("row %d = %v, want %v", i, row, want)
		}
	}
	r.Append(10, 11, 12)
	for j, want := range []Value{10, 11, 12} {
		if got := r.Column(j); len(got) != 4 || got[3] != want {
			t.Fatalf("column %d after append = %v", j, got)
		}
	}
}

// TestFromColumnsLazyRowPivot: a relation built from columns serves rows
// by gathering them on demand into the caller's buffer, never by keeping
// a row-major copy.
func TestFromColumnsLazyRowPivot(t *testing.T) {
	r := FromColumns("R", []string{"x", "y"}, [][]Value{{1, 3, 5}, {2, 4, 6}})
	if r.Len() != 3 || r.Arity() != 2 {
		t.Fatalf("len=%d arity=%d", r.Len(), r.Arity())
	}
	buf := make([]Value, 0, 2)
	tup := r.Row(1, buf)
	if tup[0] != 3 || tup[1] != 4 {
		t.Fatalf("row 1 = %v", tup)
	}
	if &tup[0] != &buf[:1][0] {
		t.Fatal("Row must gather into the caller's buffer")
	}
	tup[0] = 99
	if r.Column(0)[1] != 3 {
		t.Fatal("Row result must not alias the relation")
	}
	want := FromTuples("R", []string{"x", "y"}, [][]Value{{1, 2}, {3, 4}, {5, 6}})
	if !r.Equal(want) {
		t.Fatalf("mismatch:\n%v\nvs\n%v", r, want)
	}
}

// TestAppendAllAdoptsColumnarLayout: AppendAll copies the source column
// by column, into an empty receiver and after existing tuples alike.
func TestAppendAllAdoptsColumnarLayout(t *testing.T) {
	src := FromColumns("S", []string{"x", "y"}, [][]Value{{1, 2}, {10, 20}})
	dst := New("D", "x", "y")
	dst.AppendAll(src)
	dst.AppendAll(src)
	dst.AppendAll(New("E", "x", "y"))
	if dst.Len() != 4 {
		t.Fatalf("len=%d", dst.Len())
	}
	want := FromTuples("D", []string{"x", "y"}, [][]Value{{1, 10}, {2, 20}, {1, 10}, {2, 20}})
	if !dst.Equal(want) {
		t.Fatalf("got %v", dst)
	}
	// Mutating the source afterwards must not affect dst (AppendAll copies).
	src.Columns()[0][0] = 99
	if dst.Column(0)[0] != 1 {
		t.Fatal("AppendAll must copy column data")
	}
}

func TestAppendColumns(t *testing.T) {
	r := New("R", "a", "b")
	r.AppendColumns([][]Value{{1, 2}, {5, 6}})
	r.AppendColumns([][]Value{{3}, {7}})
	want := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 5}, {2, 6}, {3, 7}})
	if !r.Equal(want) {
		t.Fatalf("got %v want %v", r, want)
	}
}

func TestClonePreservesColumnarLayout(t *testing.T) {
	r := FromColumns("R", []string{"a"}, [][]Value{{1, 2, 3}})
	c := r.Clone()
	if !c.Equal(r) {
		t.Fatalf("clone = %v, want %v", c, r)
	}
	c.Columns()[0][0] = 42
	if r.Column(0)[0] != 1 {
		t.Fatal("clone must deep-copy columns")
	}
}

func TestRenamedCopiesAttrsSlice(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}})
	s := r.Renamed("S")
	// In-place schema mutation of the renamed relation must not alias the
	// receiver's schema (regression: Renamed used to share the Attrs slice).
	s.Attrs[0] = "x"
	if r.Attrs[0] != "a" {
		t.Fatalf("renaming aliased the schema: %v", r.Attrs)
	}
	if s.Column(0)[0] != 1 {
		t.Fatal("renamed relation lost data")
	}
}

// rowsOf gathers every tuple of r into its own slice: the row-at-a-time
// reference the column kernels are checked against.
func rowsOf(r *Relation) [][]Value {
	rows := make([][]Value, r.Len())
	for i := range rows {
		rows[i] = r.Row(i, nil)
	}
	return rows
}

// TestSortDedupColumnarMatchesRowMajor checks the column-wise Sort and
// Dedup against a row-major reference: gathered rows sorted with a
// lexicographic comparator and deduplicated pairwise.
func TestSortDedupColumnarMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		arity := 1 + rng.Intn(4)
		n := rng.Intn(120)
		r := randomRelation(rng, "R", arity, n, 8) // small domain forces duplicates
		want := rowsOf(r)
		sort.Slice(want, func(x, y int) bool { return slices.Compare(want[x], want[y]) < 0 })
		want = slices.CompactFunc(want, slices.Equal)
		r.Sort().Dedup()
		if got := rowsOf(r); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("iter %d: sort+dedup diverged:\n%v\nvs\n%v", iter, got, want)
		}
	}
}

// TestPartitionByColumnarMatchesRowMajor checks the column-wise PartitionBy
// against a row-major reference: each gathered row hashed on its key
// columns (HashValue for one column, HashTuple otherwise) and appended to
// its partition in input order.
func TestPartitionByColumnarMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 60; iter++ {
		arity := 1 + rng.Intn(3)
		n := rng.Intn(200)
		parts := 1 + rng.Intn(5)
		r := randomRelation(rng, "R", arity, n, 1000)
		cols := rng.Perm(arity)[:1+rng.Intn(arity)]
		want := make([][][]Value, parts)
		for _, row := range rowsOf(r) {
			p := 0
			if len(cols) == 1 {
				p = HashValue(row[cols[0]], parts)
			} else {
				key := make([]Value, len(cols))
				for j, c := range cols {
					key[j] = row[c]
				}
				p = HashTuple(key, parts)
			}
			want[p] = append(want[p], row)
		}
		got := r.PartitionBy(cols, parts)
		if len(got) != parts {
			t.Fatalf("iter %d: %d partitions, want %d", iter, len(got), parts)
		}
		for p := range got {
			if rows := rowsOf(got[p]); !slices.EqualFunc(rows, want[p], slices.Equal) {
				t.Fatalf("iter %d: partition %d diverged:\n%v\nvs\n%v", iter, p, rows, want[p])
			}
		}
	}
}

// TestDecodeIsColumnarResident: each wire column decodes straight into one
// relation column.
func TestDecodeIsColumnarResident(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {3, 4}})
	dec, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range [][]Value{{1, 3}, {2, 4}} {
		if got := dec.Column(j); !slices.Equal(got, want) {
			t.Fatalf("decoded column %d = %v, want %v", j, got, want)
		}
	}
	if !dec.Equal(r) {
		t.Fatalf("roundtrip mismatch: %v", dec)
	}
}

func TestDecodeIntoReusesColumnBacking(t *testing.T) {
	big := New("big", "a", "b")
	for i := 0; i < 1000; i++ {
		big.Append(Value(i), Value(i*2))
	}
	var scratch Relation
	if err := DecodeInto(Encode(big), &scratch); err != nil {
		t.Fatal(err)
	}
	firstBacking := &scratch.cols[0][0]
	small := FromTuples("small", []string{"a", "b"}, [][]Value{{5, 6}})
	if err := DecodeInto(Encode(small), &scratch); err != nil {
		t.Fatal(err)
	}
	if !scratch.Equal(small) {
		t.Fatal("second decode mismatch")
	}
	if &scratch.cols[0][0] != firstBacking {
		t.Fatal("DecodeInto should reuse column backing when capacity suffices")
	}
}

// TestHashJoinAcrossLayoutsMatches checks the column-wise hash join against
// a row-major nested-loop reference over gathered rows, as multisets, with
// either input the smaller one so both build-side choices run.
func TestHashJoinAcrossLayoutsMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 40; iter++ {
		r := randomRelation(rng, "R", 2, rng.Intn(60), 20)
		r.Attrs = []string{"a", "b"}
		s := randomRelation(rng, "S", 3, rng.Intn(60), 20)
		s.Attrs = []string{"b", "c", "a"}
		want := New("want", "a", "b", "c")
		for _, rt := range rowsOf(r) {
			for _, st := range rowsOf(s) {
				if rt[0] == st[2] && rt[1] == st[0] {
					want.Append(rt[0], rt[1], st[1])
				}
			}
		}
		if got := HashJoin(r, s); !got.Sort().Equal(want.Sort()) {
			t.Fatalf("iter %d: hash join (%d tuples) differs from nested-loop reference (%d tuples)", iter, got.Len(), want.Len())
		}
	}
}

// TestPivotsAreInverse: gathering every row with Row and appending it back
// with AppendTuple rebuilds an equal relation.
func TestPivotsAreInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := randomRelation(rng, "R", 3, 100, 50)
	back := New("R", r.Attrs...)
	for _, row := range rowsOf(r) {
		back.AppendTuple(row)
	}
	if !back.Equal(r) {
		t.Fatal("row gather and append roundtrip changed content")
	}
}

// TestRenamedAliasMutationStaysConsistent: Renamed siblings share column
// contents, so an in-place sort through one alias is visible through the
// other.
func TestRenamedAliasMutationStaysConsistent(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{3, 30}, {1, 10}, {2, 20}})
	s := r.Renamed("S")
	s.Sort() // permutes the shared columns in place
	want := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 10}, {2, 20}, {3, 30}})
	if !r.Equal(want) {
		t.Fatalf("sibling sort not visible through the original: %v", r)
	}
	if !s.Equal(want) {
		t.Fatalf("renamed relation not sorted: %v", s)
	}
}

// TestRenamedColumnarAliasHeaderIsolation: length-changing operations on a
// columnar Renamed sibling must not change the original's row count — the
// outer column-header slice is private per alias even though the column
// contents are shared.
func TestRenamedColumnarAliasHeaderIsolation(t *testing.T) {
	r := FromColumns("R", []string{"a", "b"}, [][]Value{{1, 2}, {10, 20}})
	s := r.Renamed("S")
	s.AppendAll(FromColumns("X", []string{"a", "b"}, [][]Value{{3}, {30}}))
	if r.Len() != 2 {
		t.Fatalf("append through renamed alias changed original's length: %d", r.Len())
	}
	if s.Len() != 3 {
		t.Fatalf("alias append lost rows: %d", s.Len())
	}
	// Shared content still mutates through either alias (documented).
	s2 := r.Renamed("S2")
	s2.Columns()[0][0] = 7
	if r.Column(0)[0] != 7 {
		t.Fatal("column contents should remain shared")
	}
}
