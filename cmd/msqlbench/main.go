// Command msqlbench regenerates every experiment table of EXPERIMENTS.md:
// the paper's worked examples as outcome tables (E1–E5), the architecture
// exercises (F1, F2), and the measurements backing the paper's
// qualitative claims (B1–B8, B10). It prints tables and records
// nothing: numbers that gate a PR come from bench/ (BENCHMARK.json).
//
// Usage:
//
//	msqlbench            # run everything
//	msqlbench -only B1   # run one experiment
//	msqlbench -quick     # smaller sizes for a fast pass
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"msql/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E5, F1, F2, B1..B8, B10)")
	quick := flag.Bool("quick", false, "reduced sizes for a fast pass")
	flag.Parse()

	iters := 200
	b1Rows, b1Iters := 3000, 5
	b3Ops := 30
	f2Sizes := []int{4, 16, 64, 256}
	b4Sizes := []int{1, 8, 64, 512}
	b6Sizes := []int{100, 400, 1600}
	if *quick {
		iters = 20
		b1Rows, b1Iters = 500, 2
		b3Ops = 8
		f2Sizes = []int{4, 16}
		b4Sizes = []int{1, 8, 64}
		b6Sizes = []int{100, 400}
	}

	type experiment struct {
		id  string
		run func() error
	}
	printTable := func(t *experiments.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
		return nil
	}
	all := []experiment{
		{"E1", func() error { return printTable(experiments.E1Multitable()) }},
		{"E2", func() error { return printTable(experiments.E2OutcomeMatrix()) }},
		{"E3", func() error { return printTable(experiments.E3Paths()) }},
		{"E4", func() error { return printTable(experiments.E4States()) }},
		{"E5", func() error {
			prog, err := experiments.E5Program()
			if err != nil {
				return err
			}
			fmt.Println("== E5: Section 4.3 DOL program listing (regenerated) ==")
			fmt.Println(prog)
			return nil
		}},
		{"F1", func() error { return printTable(experiments.F1PhaseBreakdown(iters)) }},
		{"F2", func() error { return printTable(experiments.F2ImportScaling(f2Sizes)) }},
		{"B1", func() error {
			return printTable(experiments.B1Parallelism([]int{1, 2, 4, 8}, b1Rows, b1Iters, 2*time.Millisecond))
		}},
		{"B2", func() error { return printTable(experiments.B2CommitModes(iters * 3)) }},
		{"B3", func() error { return printTable(experiments.B3EarlyRelease(4, b3Ops, 2*time.Millisecond)) }},
		{"B4", func() error { return printTable(experiments.B4Substitution(b4Sizes, iters)) }},
		{"B5", func() error { return printTable(experiments.B5Transport(iters * 2)) }},
		{"B6", func() error { return printTable(experiments.B6CrossJoin(b6Sizes, 3)) }},
		{"B7", func() error { return printTable(experiments.B7ConsistencyLevels(iters)) }},
		{"B8", func() error { return printTable(experiments.B8SyncGranularity(8, iters/2)) }},
		{"B10", func() error {
			tbl, _, err := experiments.B10ObservabilityOverhead(iters)
			return printTable(tbl, err)
		}},
	}

	ran := 0
	for _, e := range all {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		ran++
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(1)
	}
}
