package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestEveryMetricEmitted runs every workload briefly, untraced and traced,
// and checks that the last output line is a correct result naming exactly
// the metrics BENCHMARK.json lists for that mode, each with its unit. The
// extra workloads print the same metrics and are checked the same way.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	units := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		units["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		if _, dup := units["0"][m.Name]; dup {
			t.Errorf("BENCHMARK.json names %s twice", m.Name)
		}
		units["1"][m.Name] = m.Unit
	}
	if len(units["0"]) != len(spec.EndToEnd) || len(units["1"]) != len(spec.PerLayer) {
		t.Errorf("BENCHMARK.json repeats a metric name")
	}
	for _, w := range slices.Concat(workloadNames, extraWorkloads) {
		for _, trace := range []string{"0", "1"} {
			var out, errs bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace, "--root", ".."}, &out, &errs)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", w, trace, code, out.String(), errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", w, trace, res.Correct, res.Attempted)
			}
			want := units[trace]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%s: metric %s in %q, BENCHMARK.json says %q", w, trace, name, got.Unit, unit)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestSelfTimeSubtractsChildren checks a parent span's self time.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "adj.exec", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "adj.drain", Start: 60, End: 90},
	}
	self := selfTimes(spans)
	if self[1] != 20 || self[2] != 50 || self[3] != 30 {
		t.Fatalf("self times %v, want op 20, exec 50, drain 30", self)
	}
}
