// Command trinity-bench regenerates the tables and figures of the
// paper's evaluation section (§7) on the simulated cluster.
//
// Usage:
//
//	trinity-bench                 # run everything at the default scale
//	trinity-bench -scale 4        # larger graphs (closer to paper shapes)
//	trinity-bench -run fig12b     # one experiment
//	trinity-bench -list           # list experiment names
//	trinity-bench -metrics        # append the observability registry dump
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trinity/internal/bench"
	"trinity/internal/obs"
)

func main() {
	scale := flag.Int("scale", 1, "scale factor (1 = quick, 4+ = closer to paper shapes)")
	run := flag.String("run", "", "comma-separated experiment names (default: all)")
	list := flag.Bool("list", false, "list experiment names and exit")
	metrics := flag.Bool("metrics", false,
		"after the experiments, dump the observability registry (name value lines)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	flag.Parse()

	// Ctrl-C cancels the sweep: the context threads down to every Call, so
	// a long experiment aborts within one call timeout instead of running out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	byName := make(map[string]bench.Experiment, len(bench.Experiments))
	var selected []string
	for _, x := range bench.Experiments {
		byName[x.Name] = x
		selected = append(selected, x.Name)
	}
	if *list {
		for _, n := range selected {
			fmt.Println(n)
		}
		return
	}
	if *run != "" {
		selected = strings.Split(*run, ",")
	}
	s := bench.Scale{Factor: *scale}
	failed := false
	for _, name := range selected {
		x, ok := byName[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "trinity-bench: unknown experiment %q (use -list)\n", name)
			failed = true
			continue
		}
		start := time.Now()
		table, err := x.Run(ctx, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trinity-bench: %s: %v\n", name, err)
			failed = true
			continue
		}
		table.Print(os.Stdout)
		fmt.Printf("  (experiment wall time: %s)\n", time.Since(start).Round(time.Millisecond))
	}
	if *metrics {
		fmt.Println("--- metrics ---")
		obs.Default().WriteText(os.Stdout)
	}
	if failed {
		os.Exit(1)
	}
}
