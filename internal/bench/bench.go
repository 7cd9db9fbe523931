// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§7). Each Fig* function
// runs one experiment at a configurable scale and returns a Table whose
// rows mirror the figure's series; cmd/trinity-bench prints them and the
// root bench_test.go wires them into `go test -bench`.
//
// Absolute numbers will differ from the paper's (the cluster is simulated
// in one process); the quantities that must reproduce are the SHAPES:
// which system wins, how curves scale with nodes/degree/machines, and
// where the orderings fall. EXPERIMENTS.md records both sides.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case time.Duration:
			row[i] = fmtDuration(x)
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Timed runs fn and returns its wall-clock duration.
func Timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// Scale controls experiment sizes: 1 is the quick CI scale (seconds per
// figure); larger values multiply node counts toward the paper's shapes.
type Scale struct {
	// Factor multiplies base node counts. 1 = quick.
	Factor int
}

func (s Scale) factor() int {
	if s.Factor < 1 {
		return 1
	}
	return s.Factor
}
