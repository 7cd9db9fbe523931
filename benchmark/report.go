package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Reports: the per-workload table, the machine-readable rows, and the A/A
// comparison.

// ordered returns the names of res's metrics: end-to-end ones first in
// their declared order, then per-layer ones in theirs, then any others.
func ordered(res *result) []string {
	var out []string
	seen := map[string]bool{}
	for _, list := range [][]metricDef{native, perLayer} {
		for _, d := range list {
			if _, ok := res.metrics[d.name]; ok && !seen[d.name] {
				out, seen[d.name] = append(out, d.name), true
			}
		}
	}
	var rest []string
	for name := range res.metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func printResult(w io.Writer, res *result) {
	mode := "end-to-end"
	if res.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s ==\n", res.workload, res.seed, mode)
	fmt.Fprintf(w, "  %-36s %16s %-8s %9s %8s\n", "metric", "value", "unit", "samples", "spread")
	for _, name := range ordered(res) {
		m := res.metrics[name]
		fmt.Fprintf(w, "  %-36s %16.4f %-8s %9d %7.1f%%\n", name, m.value, m.unit, m.samples, 100*m.spread)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// row is one line of the machine-readable output.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
	Spread   float64 `json:"spread"`
}

type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
}

type rowsFile struct {
	Runs []runRecord `json:"runs"`
	Rows []row       `json:"rows"`
}

func writeRows(path string, results []*result) error {
	var f rowsFile
	for _, res := range results {
		f.Runs = append(f.Runs, runRecord{res.workload, res.seed, res.traced, res.attempted, res.failed, res.notes})
		for _, name := range ordered(res) {
			m := res.metrics[name]
			f.Rows = append(f.Rows, row{res.workload, name, m.value, m.unit, m.samples, m.spread})
		}
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRows(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f rowsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	byName := map[string]*result{}
	var out []*result
	for _, r := range f.Runs {
		res := newResult(r.Workload, r.Seed, r.Traced)
		res.attempted, res.failed, res.notes = r.Attempted, r.Failed, r.Notes
		byName[r.Workload] = res
		out = append(out, res)
	}
	for _, r := range f.Rows {
		if res := byName[r.Workload]; res != nil {
			res.set(r.Metric, r.Unit, r.Value, r.Samples, r.Spread)
		}
	}
	return out, nil
}

// boundOf returns the bound -aa holds a native end-to-end metric to and
// whether a miss fails the comparison: scored metrics take the bound of
// the slot that carries them, fail_share an absolute one, the unscored
// ones an advisory one.
func boundOf(name string) (bound float64, absolute, binding bool) {
	if name == "fail_share" {
		return 0.001, true, true
	}
	for _, s := range slots {
		if s.serving == name || s.offline == name {
			return s.bound, false, true
		}
	}
	return unscoredBounds[name], false, false
}

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their difference and the bound, and reports whether every pair
// of scored metrics agrees within its bound.
func compareSets(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "\n== A/A: two sets of the same commit ==\n")
	fmt.Fprintf(w, "  %-12s %-28s %16s %16s %9s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, ra := range a {
		rb := b[i]
		for _, d := range native {
			ma, inA := ra.metrics[d.name]
			mb, inB := rb.metrics[d.name]
			if !inA || !inB {
				continue
			}
			bound, absolute, binding := boundOf(d.name)
			if bound == 0 {
				continue
			}
			diff := math.Abs(mb.value - ma.value)
			if !absolute && ma.value != 0 {
				diff /= math.Abs(ma.value)
			}
			verdict := ""
			switch {
			case diff > bound && binding:
				verdict, ok = "  MISS", false
			case diff > bound:
				verdict = "  (unscored, over)"
			}
			fmt.Fprintf(w, "  %-12s %-28s %16.4f %16.4f %8.1f%% %7.1f%%%s\n",
				ra.workload, d.name, ma.value, mb.value, 100*diff, 100*bound, verdict)
		}
	}
	return ok
}
