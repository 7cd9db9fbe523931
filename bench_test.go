// Package trinity's root benchmark file wires every table and figure of
// the paper's evaluation into `go test -bench`: BenchmarkExperiments runs
// each entry of bench.Experiments end to end (graph generation, loading,
// query/computation) as one sub-benchmark and prints the figure's rows
// once, so `go test -bench=. -benchmem` regenerates the full evaluation
// at quick scale. For larger, paper-shaped runs use
// `go run ./cmd/trinity-bench -scale 4`.
package trinity_test

import (
	"context"
	"os"
	"testing"

	"trinity/internal/bench"
)

// BenchmarkExperiments executes each experiment b.N times (one iteration
// is one full figure regeneration) and prints its table on the first run.
func BenchmarkExperiments(b *testing.B) {
	for _, x := range bench.Experiments {
		b.Run(x.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table, err := x.Run(context.Background(), bench.Scale{Factor: 1})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && b.N == 1 {
					table.Print(os.Stdout)
				}
			}
		})
	}
}
