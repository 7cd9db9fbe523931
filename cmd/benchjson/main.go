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
// fails when any benchmark's allocs/op grew by more than 20% (plus a
// small absolute grace of 2, so near-zero baselines don't flap):
//
//	benchjson -compare BENCH_baseline.json BENCH_new.json
//
// allocs/op is a property of the code, not of the machine or its
// neighbours, so it is the one axis a committed baseline can gate. ns/op
// is printed beside it for the reader and gates nothing: time is the
// scored benchmark's job (benchmark/), which measures its own noise.
// Benchmarks present in only one file are reported but never fail the
// comparison (new benchmarks appear, old ones get renamed); likewise a
// record without allocs/op (made without -benchmem) gates nothing.
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

// allocTol is the fractional allocs/op growth the gate allows, and
// allocGrace the absolute slack on top of it, so a 0→1 blip on an
// allocation-free benchmark doesn't fail the gate.
const (
	allocTol   = 0.20
	allocGrace = 2
)

type result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) allocate more than the baseline allows\n", regressed)
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

// runCompare diffs two archived benchmark documents and writes a report:
// ns/op for the reader, allocs/op (when both sides recorded it) as the
// gate. It returns how many benchmarks' allocs/op regressed.
func runCompare(oldPath, newPath string, w io.Writer) (int, error) {
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
		oldAllocs, hasOld := or.Metrics["allocs/op"]
		newAllocs, hasNew := nr.Metrics["allocs/op"]
		verdict := "ok   "
		if hasOld && hasNew && newAllocs > oldAllocs*(1+allocTol)+allocGrace {
			verdict = "ALLOC"
			regressed++
		}
		fmt.Fprintf(w, "%s %-60s %12.0f -> %12.0f ns/op  %10.0f -> %10.0f allocs/op\n",
			verdict, k, or.Metrics["ns/op"], nr.Metrics["ns/op"], oldAllocs, newAllocs)
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
