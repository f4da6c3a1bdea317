package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runOutput is one saved run: its workload (from the header line) and its
// result (the last line).
type runOutput struct {
	workload string
	correct  bool
	metrics  map[string]float64
}

// parseRunOutput reads the standard output of one run.
func parseRunOutput(r io.Reader) (runOutput, error) {
	var out runOutput
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "perfbench-header "); ok {
			var hdr struct {
				Workload string `json:"workload"`
			}
			if err := json.Unmarshal([]byte(h), &hdr); err != nil {
				return out, fmt.Errorf("header: %w", err)
			}
			out.workload = hdr.Workload
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return out, fmt.Errorf("result line: %w", err)
	}
	if out.workload == "" {
		return out, fmt.Errorf("no perfbench-header line")
	}
	out.correct = res.Correct
	out.metrics = make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		out.metrics[k] = v.Value
	}
	return out, nil
}

// runSet groups a directory's saved runs: workload → metric → values.
type runSet map[string]map[string][]float64

func loadRunSet(dir string) (runSet, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, 0, err
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("%s: no *.out run outputs", dir)
	}
	set := make(runSet)
	incorrect := 0
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, 0, err
		}
		ro, err := parseRunOutput(fh)
		fh.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		if !ro.correct {
			incorrect++
		}
		if set[ro.workload] == nil {
			set[ro.workload] = make(map[string][]float64)
		}
		for k, v := range ro.metrics {
			set[ro.workload][k] = append(set[ro.workload][k], v)
		}
	}
	return set, incorrect, nil
}

// compareMain compares two sets of saved runs (directories of *.out files,
// one run's standard output each) against BENCHMARK.json's bounds: for
// every (end-to-end metric, workload) pair it reports each set's median
// and quartiles, and fails the pair when a set's quartile spread exceeds
// the bound (setup_s exempt) or the second median is worse than the first
// by more than the bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fset.SetOutput(stderr)
	specPath := fset.String("spec", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] <runs-dir-A> <runs-dir-B>")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2]runSet
	for i := range sets {
		set, incorrect, err := loadRunSet(fset.Arg(i))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		if incorrect > 0 {
			fmt.Fprintf(stdout, "set %s: %d runs reported correct=false\n", fset.Arg(i), incorrect)
		}
		sets[i] = set
	}
	fmt.Fprintf(stdout, "A = %s\nB = %s\n", fset.Arg(0), fset.Arg(1))
	fmt.Fprintf(stdout, "%-14s %-13s %5s %3s %12s %12s %12s %7s %3s %12s %12s %12s %7s %7s  %s\n",
		"workload", "metric", "bound", "nA", "A.q1", "A.median", "A.q3", "A.iqr%",
		"nB", "B.q1", "B.median", "B.q3", "B.iqr%", "B/A", "verdict")
	failed := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][wl.Name][m.Name], sets[1][wl.Name][m.Name]
			verdict := pairVerdict(a, b, m.Better, m.Bound, m.Name == "setup_s")
			if verdict != "ok" {
				failed++
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			fmt.Fprintf(stdout, "%-14s %-13s %5.2f %3d %12.6g %12.6g %12.6g %7.2f %3d %12.6g %12.6g %12.6g %7.2f %7.3f  %s\n",
				wl.Name, m.Name, m.Bound, len(a), aq1, amed, aq3, 100*spread(a),
				len(b), bq1, bmed, bq3, 100*spread(b), ratioOf(bmed, amed), verdict)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL: %d pairs out of bounds\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "PASS: every pair within its bound")
	return 0
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pairVerdict judges one (metric, workload) pair of two run sets.
func pairVerdict(a, b []float64, better string, bound float64, spreadExempt bool) string {
	if len(a) < 2 || len(b) < 2 {
		return "too-few-runs"
	}
	var bad []string
	if !spreadExempt {
		if spread(a) > bound {
			bad = append(bad, "A-spread")
		}
		if spread(b) > bound {
			bad = append(bad, "B-spread")
		}
	}
	_, amed, _ := quartiles(a)
	_, bmed, _ := quartiles(b)
	if amed == 0 || bmed == 0 {
		bad = append(bad, "zero-median")
	} else if better == "lower" && bmed > amed*(1+bound) || better == "higher" && bmed < amed*(1-bound) {
		bad = append(bad, "B-worse")
	}
	if len(bad) == 0 {
		return "ok"
	}
	sort.Strings(bad)
	return strings.Join(bad, ",")
}
