package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in one mode in a fresh process of this
// binary, so peak RSS and allocator state are the workload's own, and
// returns the result line it printed.
func runChild(workload string, seed int64, seconds float64, trace int, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	res := &result{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%s trace=%d: no result line (%v, exit: %v)", workload, trace, err, runErr)
	}
	return res, nil
}

// suiteRun is one pass over all workloads: per workload the end-to-end
// result and the traced one.
type suiteRun map[string][2]*result

// runSuite runs every workload in both modes `repeat` times, prints every
// metric by name, and — with repeat > 1 — compares each later pass with
// the first: an end-to-end metric worse by more than its bound, any
// failed script, or an exact-count layer metric that differs makes the
// exit code non-zero.
func runSuite(seed int64, seconds float64, repeat int, outDir string) int {
	bad := 0
	var runs []suiteRun
	for pass := 0; pass < repeat; pass++ {
		run := suiteRun{}
		for _, w := range allWorkloads(false) {
			var pair [2]*result
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(w.name, seed, seconds, trace, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				fmt.Printf("pass %d, trace %d: ", pass+1, trace)
				printMetrics(w.name, res)
				if !res.Correct {
					bad++
				}
				pair[trace] = res
			}
			run[w.name] = pair
		}
		runs = append(runs, run)
	}
	for pass := 1; pass < repeat; pass++ {
		bad += compare(runs[0], runs[pass], pass+1)
	}
	if bad > 0 {
		fmt.Printf("FAIL: %d check(s) outside their bound\n", bad)
		return 1
	}
	return 0
}

// compare prints, per workload and end-to-end metric, both passes' values,
// how much worse the later one is and the bound, then checks the
// exact-count layer metrics; it returns how many checks failed.
func compare(a, b suiteRun, pass int) int {
	bad := 0
	fmt.Printf("\npass 1 against pass %d:\n%-16s %-12s %12s %12s %8s %6s\n", pass, "workload", "metric", "pass 1", "later", "worse", "bound")
	for _, w := range allWorkloads(false) {
		for _, m := range endToEnd {
			x, y := a[w.name][0].Metrics[m.Name].Value, b[w.name][0].Metrics[m.Name].Value
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", w.name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
		for _, name := range exactCounts {
			x, y := a[w.name][1].Metrics[name].Value, b[w.name][1].Metrics[name].Value
			if x != y {
				fmt.Printf("%-16s %s differs: %v, then %v\n", w.name, name, x, y)
				bad++
			}
		}
	}
	return bad
}
