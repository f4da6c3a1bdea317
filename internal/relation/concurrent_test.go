package relation_test

import (
	"sync"
	"testing"

	"adj/internal/relation"
	"adj/internal/trie"
)

// TestConcurrentReaders has four goroutines read one shared relation at
// once through every read path the engines use concurrently. Reads must
// never write to the relation, so the test is clean under `go test -race`.
func TestConcurrentReaders(t *testing.T) {
	const n = 512
	a, b, c := make([]relation.Value, n), make([]relation.Value, n), make([]relation.Value, n)
	for i := range a {
		a[i], b[i], c[i] = relation.Value(n-i), relation.Value(i%7), relation.Value(i*i%31)
	}
	r := relation.FromColumns("R", []string{"a", "b", "c"}, [][]relation.Value{a, b, c})
	wantFP := relation.Fingerprint(r)
	wantBytes := len(relation.Encode(r))

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var row []relation.Value
			for i := 0; i < r.Len(); i++ {
				row = r.Row(i, row)
				if row[0] != r.Columns()[0][i] {
					errs <- "Row disagrees with Columns"
					return
				}
			}
			if relation.Fingerprint(r) != wantFP {
				errs <- "Fingerprint changed under concurrent reads"
				return
			}
			if got := len(relation.AppendEncode(nil, r)); got != wantBytes {
				errs <- "AppendEncode size changed under concurrent reads"
				return
			}
			if tr := trie.Build(r, []string{"b", "a", "c"}); tr.NumTuples != n {
				errs <- "trie.Build lost tuples"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
