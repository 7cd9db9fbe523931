// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so benchmark runs can be archived and
// diffed across commits:
//
//	go test -run=NONE -bench=. ./internal/... | benchjson -o bench_new.json
//
// Each benchmark result line becomes one record carrying the owning
// package (from the interleaved "pkg:" / "ok" lines), the iteration
// count, and every reported metric (ns/op, B/op, allocs/op, custom
// ReportMetric units) keyed by unit name.
//
// With -compare, benchjson instead diffs two archived JSON documents and
// fails when any benchmark's ns/op — or, when both records carry it,
// allocs/op — regressed beyond the tolerance:
//
//	benchjson -compare -tol 0.20 BENCH_baseline.json BENCH_new.json
//
// Benchmarks present in only one file are reported but never fail the
// comparison (new benchmarks appear, old ones get renamed); likewise a
// baseline without allocs/op (recorded before -benchmem) never fails the
// alloc gate. Only a measured regression does. Alloc comparisons get a
// small absolute grace (+2 allocs/op) on top of the fractional tolerance
// so near-zero baselines don't flap.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// allocGrace is the absolute allocs/op slack added on top of the
// fractional tolerance, so a 0→1 blip on an allocation-free benchmark
// doesn't fail the gate.
const allocGrace = 2

type result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	tol := flag.Float64("tol", 0.20, "allowed fractional ns/op and allocs/op regression in -compare mode (0.20 = 20%)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *tol, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", regressed, *tol*100)
			os.Exit(1)
		}
		return
	}

	var results []result
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "ok "), strings.HasPrefix(line, "FAIL"):
			pkg = ""
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line, pkg); ok {
				results = append(results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d results -> %s\n", len(results), *out)
}

// runCompare diffs two archived benchmark documents on ns/op and (when
// both sides recorded it) allocs/op, and writes a report. It returns how
// many benchmarks regressed on either axis beyond tol.
func runCompare(oldPath, newPath string, tol float64, w io.Writer) (int, error) {
	oldRes, err := loadResults(oldPath)
	if err != nil {
		return 0, err
	}
	newRes, err := loadResults(newPath)
	if err != nil {
		return 0, err
	}
	key := func(r result) string { return r.Package + "." + r.Name }
	oldBy := make(map[string]result, len(oldRes))
	for _, r := range oldRes {
		oldBy[key(r)] = r
	}
	regressed := 0
	seen := make(map[string]bool, len(newRes))
	for _, nr := range newRes {
		k := key(nr)
		seen[k] = true
		or, ok := oldBy[k]
		if !ok {
			fmt.Fprintf(w, "NEW   %-60s %12.0f ns/op\n", k, nr.Metrics["ns/op"])
			continue
		}
		oldNs, newNs := or.Metrics["ns/op"], nr.Metrics["ns/op"]
		if oldNs <= 0 || newNs <= 0 {
			continue // no timing metric to compare
		}
		delta := (newNs - oldNs) / oldNs
		verdict := "ok   "
		if delta > tol {
			verdict = "SLOW "
			regressed++
		} else if delta < -tol {
			verdict = "fast "
		}
		fmt.Fprintf(w, "%s %-60s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			verdict, k, oldNs, newNs, delta*100)

		// Alloc gate: only when the baseline has the metric at all — an
		// old archive recorded without -benchmem must not fail every run.
		oldAllocs, hasOld := or.Metrics["allocs/op"]
		newAllocs, hasNew := nr.Metrics["allocs/op"]
		if !hasOld || !hasNew {
			continue
		}
		if newAllocs > oldAllocs*(1+tol)+allocGrace {
			regressed++
			fmt.Fprintf(w, "ALLOC %-60s %12.0f -> %12.0f allocs/op\n",
				k, oldAllocs, newAllocs)
		}
	}
	for _, or := range oldRes {
		if !seen[key(or)] {
			fmt.Fprintf(w, "GONE  %-60s %12.0f ns/op\n", key(or), or.Metrics["ns/op"])
		}
	}
	return regressed, nil
}

func loadResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkFoo-8  1234  5678 ns/op  90 B/op  2 allocs/op
//
// i.e. the name, the iteration count, then (value, unit) pairs.
func parseLine(line, pkg string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{
		Name:       trimProcsSuffix(fields[0]),
		Package:    pkg,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// trimProcsSuffix drops the numeric -N GOMAXPROCS suffix from a
// benchmark name, if present.
func trimProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
