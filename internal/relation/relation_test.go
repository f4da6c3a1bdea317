package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewAndAppend(t *testing.T) {
	r := New("R", "a", "b")
	if r.Arity() != 2 || r.Len() != 0 {
		t.Fatalf("empty relation: arity=%d len=%d", r.Arity(), r.Len())
	}
	r.Append(1, 2)
	r.Append(3, 4)
	if r.Len() != 2 {
		t.Fatalf("len=%d want 2", r.Len())
	}
	if got := r.Row(1, nil); got[0] != 3 || got[1] != 4 {
		t.Fatalf("tuple(1)=%v", got)
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	New("R", "a", "b").Append(1)
}

func TestSortDedup(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{
		{3, 1}, {1, 2}, {3, 1}, {1, 1}, {2, 9}, {1, 2},
	})
	r.SortDedup()
	want := [][]Value{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	if r.Len() != len(want) {
		t.Fatalf("len=%d want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual([]Value(r.Row(i, nil)), w) {
			t.Errorf("tuple %d = %v want %v", i, r.Row(i, nil), w)
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		r := New("R", "a", "b", "c")
		for i := 0; i < n; i++ {
			r.Append(rng.Int63n(5), rng.Int63n(5), rng.Int63n(5))
		}
		r.Sort()
		for i := 1; i < r.Len(); i++ {
			a, b := r.Row(i-1, nil), r.Row(i, nil)
			for j := 0; j < 3; j++ {
				if a[j] < b[j] {
					break
				}
				if a[j] > b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		r := New("R", "a", "b")
		seen := make(map[[2]Value]bool)
		for i := 0; i < n; i++ {
			v := [2]Value{rng.Int63n(4), rng.Int63n(4)}
			seen[v] = true
			r.Append(v[0], v[1])
		}
		r.SortDedup()
		return r.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectSetSemantics(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {1, 3}, {2, 2}})
	p := r.Project("a")
	if p.Len() != 2 {
		t.Fatalf("project(a) len=%d want 2", p.Len())
	}
	if p.Row(0, nil)[0] != 1 || p.Row(1, nil)[0] != 2 {
		t.Fatalf("project values wrong: %v", p)
	}
	// Reordered projection.
	pr := r.Project("b", "a")
	if !reflect.DeepEqual(pr.Attrs, []string{"b", "a"}) {
		t.Fatalf("schema %v", pr.Attrs)
	}
	if pr.Len() != 3 {
		t.Fatalf("project(b,a) len=%d want 3", pr.Len())
	}
}

func TestProjectMissingAttrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R", "a").Project("zz")
}

func TestSelectAndDistinct(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {1, 3}, {2, 2}})
	s := r.Select("a", 1)
	if s.Len() != 2 {
		t.Fatalf("select len=%d", s.Len())
	}
	d := r.Distinct("b")
	if !reflect.DeepEqual(d, []Value{2, 3}) {
		t.Fatalf("distinct=%v", d)
	}
}

func TestSemijoin(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {2, 3}, {3, 4}})
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 9}, {4, 9}})
	out := r.Semijoin(s, []string{"b"})
	if out.Len() != 2 {
		t.Fatalf("semijoin len=%d want 2", out.Len())
	}
	if out.Row(0, nil)[1] != 2 || out.Row(1, nil)[1] != 4 {
		t.Fatalf("semijoin tuples wrong: %v", out)
	}
}

func TestSemijoinValues(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {2, 3}, {3, 4}})
	out := r.SemijoinValues("a", []Value{1, 3})
	if out.Len() != 2 {
		t.Fatalf("len=%d", out.Len())
	}
}

func TestHashJoinBasic(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}, {2, 3}})
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 7}, {2, 8}, {3, 9}})
	j := HashJoin(r, s)
	j.SortDedup()
	want := [][]Value{{1, 2, 7}, {1, 2, 8}, {2, 3, 9}}
	if j.Len() != len(want) {
		t.Fatalf("join len=%d want %d: %v", j.Len(), len(want), j)
	}
	for i, w := range want {
		if !reflect.DeepEqual([]Value(j.Row(i, nil)), w) {
			t.Errorf("tuple %d = %v want %v", i, j.Row(i, nil), w)
		}
	}
	if !reflect.DeepEqual(j.Attrs, []string{"a", "b", "c"}) {
		t.Fatalf("schema=%v", j.Attrs)
	}
}

func TestHashJoinNoSharedAttrsIsCross(t *testing.T) {
	r := FromTuples("R", []string{"a"}, [][]Value{{1}, {2}})
	s := FromTuples("S", []string{"b"}, [][]Value{{7}, {8}, {9}})
	j := HashJoin(r, s)
	if j.Len() != 6 {
		t.Fatalf("cross product len=%d want 6", j.Len())
	}
}

func TestHashJoinEmpty(t *testing.T) {
	r := New("R", "a", "b")
	s := FromTuples("S", []string{"b", "c"}, [][]Value{{2, 7}})
	if HashJoin(r, s).Len() != 0 || HashJoin(s, r).Len() != 0 {
		t.Fatal("join with empty must be empty")
	}
}

// HashJoin must agree with NaiveJoin on random inputs.
func TestHashJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRel(rng, "R", []string{"a", "b"}, 20, 5)
		s := randRel(rng, "S", []string{"b", "c"}, 20, 5)
		got := HashJoin(r, s).SortDedup()
		want := NaiveJoin([]*Relation{r, s}, []string{"a", "b", "c"})
		return got.Len() == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinAllTriangle(t *testing.T) {
	// Tiny triangle instance with a known answer.
	e := [][]Value{{1, 2}, {2, 3}, {1, 3}, {3, 1}}
	r1 := FromTuples("R1", []string{"a", "b"}, e)
	r2 := FromTuples("R2", []string{"b", "c"}, e)
	r3 := FromTuples("R3", []string{"a", "c"}, e)
	j := JoinAll([]*Relation{r1, r2, r3}).ProjectMulti("a", "b", "c").SortDedup()
	want := NaiveJoin([]*Relation{r1, r2, r3}, []string{"a", "b", "c"})
	if j.Len() != want.Len() {
		t.Fatalf("triangles=%d want %d", j.Len(), want.Len())
	}
	if want.Len() == 0 {
		t.Fatal("test instance should have at least one triangle")
	}
}

func TestPartitionBy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := randRel(rng, "R", []string{"a", "b"}, 500, 50)
	parts := r.PartitionBy([]int{0}, 7)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != r.Len() {
		t.Fatalf("partition lost tuples: %d vs %d", total, r.Len())
	}
	// Same key -> same partition.
	for pi, p := range parts {
		for i := 0; i < p.Len(); i++ {
			if HashValue(p.Row(i, nil)[0], 7) != pi {
				t.Fatalf("tuple in wrong partition")
			}
		}
	}
}

func TestHashValueRangeAndSpread(t *testing.T) {
	counts := make([]int, 8)
	for v := Value(0); v < 8000; v++ {
		h := HashValue(v, 8)
		if h < 0 || h >= 8 {
			t.Fatalf("hash out of range: %d", h)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("bucket %d badly skewed: %d/8000", i, c)
		}
	}
	if HashValue(123, 1) != 0 {
		t.Fatal("parts=1 must map to 0")
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []Value{1, 3, 5, 7}
	b := []Value{2, 3, 5, 8}
	got := IntersectSorted(a, b)
	if !reflect.DeepEqual(got, []Value{3, 5}) {
		t.Fatalf("intersect=%v", got)
	}
	if IntersectAllSorted([][]Value{a, b, {5}}) == nil {
		t.Fatal("triple intersection should be {5}")
	}
	if got := IntersectAllSorted([][]Value{a, {9}}); len(got) != 0 {
		t.Fatalf("empty intersection got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := FromTuples("R", []string{"a"}, [][]Value{{1}})
	c := r.Clone()
	c.Append(2)
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone must be independent")
	}
}

func TestRenamedSharesData(t *testing.T) {
	r := FromTuples("R", []string{"a", "b"}, [][]Value{{1, 2}})
	s := r.Renamed("S")
	s.Attrs = []string{"x", "y"}
	if s.Len() != 1 || s.Row(0, nil)[0] != 1 {
		t.Fatal("renamed relation lost data")
	}
	if r.Attrs[0] != "a" {
		t.Fatal("renaming must not affect original schema")
	}
}

// TestSortByColumns checks the permutation sort against a sort.SliceStable
// oracle over gathered rows: arities 1–3, partial priority lists (the
// unlisted columns break ties in schema order), and small domains so ties
// on the listed columns are common.
func TestSortByColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	attrs := []string{"a", "b", "c"}
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(3)
		r := New("R", attrs[:k]...)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			row := make([]Value, k)
			for j := range row {
				row[j] = rng.Int63n(4) - 2
			}
			r.AppendTuple(row)
		}
		prio := rng.Perm(k)[:rng.Intn(k+1)]
		order := append([]int(nil), prio...)
		for c := 0; c < k; c++ {
			if !slices.Contains(prio, c) {
				order = append(order, c)
			}
		}
		want := make([][]Value, r.Len())
		for i := range want {
			want[i] = r.Row(i, nil)
		}
		sort.SliceStable(want, func(x, y int) bool {
			for _, c := range order {
				if want[x][c] != want[y][c] {
					return want[x][c] < want[y][c]
				}
			}
			return false
		})
		r.SortByColumns(prio)
		for i := range want {
			if got := r.Row(i, nil); !slices.Equal(got, want[i]) {
				t.Fatalf("iter %d (arity %d, priority %v): row %d = %v, want %v", iter, k, prio, i, got, want[i])
			}
		}
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// Adjacent values that a naive byte-concat might collide on.
	a := encodeKey([]Value{1, 0})
	b := encodeKey([]Value{0, 1})
	c := encodeKey([]Value{1 << 32, 0})
	if a == b || a == c || b == c {
		t.Fatal("encodeKey collided")
	}
}

func randRel(rng *rand.Rand, name string, attrs []string, n int, dom int64) *Relation {
	r := New(name, attrs...)
	for i := 0; i < n; i++ {
		row := make([]Value, len(attrs))
		for j := range row {
			row[j] = rng.Int63n(dom)
		}
		r.AppendTuple(row)
	}
	return r.SortDedup()
}
