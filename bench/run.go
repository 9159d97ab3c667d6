package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"msql/internal/mdserver"
)

// sample is one measured script.
type sample struct {
	done time.Time
	lat  time.Duration
	ok   bool // reply verified
}

// clientStats is what one closed-loop client saw, or several merged.
type clientStats struct {
	samples  []sample // the measured scripts
	ok       int      // verified scripts that ended in state success, warm-up included
	firstErr error
}

func (st *clientStats) failed() int {
	n := 0
	for _, x := range st.samples {
		if !x.ok {
			n++
		}
	}
	return n
}

func merge(parts ...*clientStats) *clientStats {
	all := &clientStats{}
	for _, p := range parts {
		all.samples = append(all.samples, p.samples...)
		all.ok += p.ok
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	return all
}

// drive runs one client's closed loop: scripts issued before warmUntil
// are executed and verified but not timed; the loop stops at the first
// multiple of stride ops past until (stride 1 stops at once, opCycle
// leaves no half-finished pair), or after maxOps measured ops when
// maxOps > 0. rec, when non-nil, gets a root span per measured script.
func drive(c *mdserver.Client, g *generator, warmUntil, until time.Time, stride, maxOps int, rec *recorder) *clientStats {
	st := &clientStats{}
	for n := 0; ; n++ {
		now := time.Now()
		measured := !now.Before(warmUntil)
		if n%stride == 0 && ((maxOps > 0 && len(st.samples) >= maxOps) || (maxOps == 0 && !now.Before(until))) {
			return st
		}
		o := g.next()
		start := time.Now()
		res, err := c.Script(context.Background(), o.Script)
		end := time.Now()
		if rec != nil && measured {
			rec.add(span{Name: spanRoot}, start)
		}
		verr := o.verify(res, err)
		if verr == nil && o.Want.State == "success" {
			st.ok++
		}
		if measured {
			st.samples = append(st.samples, sample{end, end.Sub(start), verr == nil})
		}
		if verr != nil {
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("client %d op %d: %w", g.client, g.i-1, verr)
			}
			if err != nil {
				return st // the connection is unusable after a transport error
			}
		}
	}
}

// driveAll runs one generator per client connection concurrently and
// merges what they saw.
func driveAll(f *federation, w *workload, seed int64, warmUntil, until time.Time) *clientStats {
	parts := make([]*clientStats, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *mdserver.Client) {
			defer wg.Done()
			parts[i] = drive(c, newGenerator(w, seed, i), warmUntil, until, 1, 0, nil)
		}(i, c)
	}
	wg.Wait()
	return merge(parts...)
}

// percentile returns the p-quantile (0..1) of sorted durations in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// sortedLats returns the samples' latencies in ascending order.
func sortedLats(samples []sample) []time.Duration {
	s := make([]time.Duration, len(samples))
	for i, x := range samples {
		s[i] = x.lat
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

// quantile returns the q-quantile (0..1) of v, interpolating linearly
// between neighbours; v must not be empty.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is one run's outcome in the shape the builder contract prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// windowSlices is how many equal-count slices the measurement window is
// cut into. On the shared sandbox a noisy neighbour slows whole stretches
// of ten seconds and more by a fifth; interference only ever slows a
// slice down, so every end-to-end figure is the better quartile over the
// slices — an estimate of the undisturbed speed that a stall or a busy
// neighbour during up to three quarters of the window does not move.
const windowSlices = 10

// sliceQuartiles orders the window's samples by completion, cuts them
// into windowSlices equal-count slices, and returns the better quartile
// over the slices of: verified completions per second (a slice lasts from
// the previous slice's last completion to its own; upper quartile), the
// slice's p50 and its p90 latency in ms (lower quartile). Scripts that
// complete after the deadline are left out.
func sliceQuartiles(samples []sample, t0, deadline time.Time) (rate, p50, p90 float64) {
	in := make([]sample, 0, len(samples))
	for _, x := range samples {
		if !x.done.After(deadline) {
			in = append(in, x)
		}
	}
	sort.Slice(in, func(a, b int) bool { return in[a].done.Before(in[b].done) })
	k := min(windowSlices, len(in))
	if k == 0 {
		return 0, 0, 0
	}
	rates, p50s, p90s := make([]float64, k), make([]float64, k), make([]float64, k)
	prev := t0
	for g := 0; g < k; g++ {
		part := in[g*len(in)/k : (g+1)*len(in)/k]
		ok := 0
		for _, x := range part {
			if x.ok {
				ok++
			}
		}
		last := part[len(part)-1].done
		rates[g] = float64(ok) / last.Sub(prev).Seconds()
		prev = last
		lats := sortedLats(part)
		p50s[g], p90s[g] = percentile(lats, 0.50), percentile(lats, 0.90)
	}
	return quantile(rates, 0.75), quantile(p50s, 0.25), quantile(p90s, 0.25)
}

// dataDir is where a run's sites, journals and csv files live.
func dataDir(outDir string, w *workload) string {
	return filepath.Join(outDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
}

// reportFailures says on standard error why a run is about to be marked
// incorrect.
func reportFailures(firstErr, invariantErr error) {
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failure:", firstErr)
	}
	if invariantErr != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", invariantErr)
	}
}

// setupRepeats is how many times a run stands the federation up; setup_s
// is their median.
const setupRepeats = 5

// warmup is the untimed lead-in of an end-to-end run.
func warmup(seconds float64) time.Duration {
	return time.Duration(math.Min(3, seconds*0.15) * float64(time.Second))
}

// runEndToEnd measures a workload untraced with its closed-loop
// connections for the given window and returns the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, seconds float64, outDir string) (*result, error) {
	dir := dataDir(outDir, w)
	f, err := build(w, dir, nil, w.clients)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{f.setup.Seconds()}
	// Collect the load's garbage now, so that the collector enters the
	// window from the live heap and not from wherever set-up left it.
	runtime.GC()

	t0 := time.Now().Add(warmup(seconds))
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	st := driveAll(f, w, seed, t0, deadline)
	rss := peakRSSMB()
	ierr := w.invariant(f, st.ok)
	f.close()
	reportFailures(st.firstErr, ierr)

	for len(setups) < setupRepeats {
		runtime.GC()
		g, err := build(w, dir, nil, w.clients)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, g.setup.Seconds())
		g.close()
	}

	rate, p50, p90 := sliceQuartiles(st.samples, t0, deadline)
	res := &result{
		Correct:   st.firstErr == nil && ierr == nil && len(st.samples) > 0,
		Attempted: len(st.samples),
		Failed:    st.failed(),
		Metrics: map[string]metricValue{
			"stmt_per_s":  {rate, "1/s"},
			"lat_p50_ms":  {p50, "ms"},
			"lat_p90_ms":  {p90, "ms"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}
	return res, nil
}
