// Command bench is the federation's one layered benchmark: four
// workloads, each measured end to end (untraced, two closed-loop
// clients) and layer by layer (traced, one client, fixed op count). See
// README.md for the metric definitions and BENCHMARK.json at the repo
// root for the contract the driver runs it under.
//
//	bash bench/run.sh --workload read_fanout --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1            # all four, both modes, one child process each
//	bash bench/run.sh -seed 1 -repeat 2  # the suite twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (read_fanout, vital_2pc, comp_saga_csv, cross_join_ship); empty runs the suite, one child process per workload and mode")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds = flag.Float64("seconds", 20, "measurement window of one run")
		trace   = flag.Int("trace", 0, "0 measures end to end with tracing off, 1 runs the traced per-layer pass")
		repeat  = flag.Int("repeat", 1, "suite mode: run the suite this many times and compare the runs against the bounds")
		outDir  = flag.String("out", "out", "directory for traces and the sites' data (removed after each run)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *repeat, *outDir))
	}
	w := findWorkload(*name, false)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, *seconds, *outDir)
	} else {
		var sum *traceSummary
		res, sum, err = runTraced(w, *seed, *seconds, *outDir)
		if err == nil {
			printBySite(sum)
		}
	}
	if err != nil {
		fatal(err)
	}
	printMetrics(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printMetrics lists every metric of a run by name with its unit.
func printMetrics(workload string, res *result) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Printf("  %-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
}

// printBySite breaks the traced run's busy time down by site, which the
// per-layer metrics sum over.
func printBySite(sum *traceSummary) {
	sites := make([]string, 0, len(sum.BusyBySite))
	for s := range sum.BusyBySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	fmt.Println("busy us per statement by site:")
	for _, s := range sites {
		names := make([]string, 0, len(sum.BusyBySite[s]))
		for n := range sum.BusyBySite[s] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-6s %-20s %12.1f\n", s, n, float64(sum.BusyBySite[s][n])/1e3/float64(sum.Roots))
		}
	}
}
