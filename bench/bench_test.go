package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// stream renders a client's first n ops, expectations included.
func stream(w *workload, seed int64, client, n int) string {
	g := newGenerator(w, seed, client)
	var b strings.Builder
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(&b, "%s\n-- %s %s %s\n", o.Script, o.Want.Kind, o.Want.State, bag(o.Want.Rows))
	}
	return b.String()
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range allWorkloads(false) {
		for c := 0; c < w.clients; c++ {
			a, b := stream(w, 7, c, 4*opCycle), stream(w, 7, c, 4*opCycle)
			if a != b {
				t.Errorf("%s client %d: same seed gave different streams", w.name, c)
			}
			if other := stream(w, 8, c, 4*opCycle); other == a {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same keys", w.name, c)
			}
		}
		if w.clients > 1 && stream(w, 7, 0, opCycle) == stream(w, 7, 1, opCycle) {
			t.Errorf("%s: two clients share one stream", w.name)
		}
	}
}

func TestSummarizePartitionsWallTime(t *testing.T) {
	// One root 0..100; sites a and b overlap; a's backend span sits
	// inside its lam span; one backend span has no lam span round it.
	spans := []span{
		{Name: spanRoot, Start: 0, End: 100},
		{Name: spanLamExec, Site: "a", Start: 10, End: 50},
		{Name: spanLamExec, Site: "b", Start: 30, End: 70},
		{Name: spanBeExec, Site: "a", Start: 20, End: 40, Rows: 2},
		{Name: spanBeExec, Site: "b", Start: 80, End: 90},
		{Name: spanLamOpen, Site: "a", Start: 200, End: 210},
	}
	sum := summarize(spans)
	if sum.Roots != 1 || sum.Orphans != 2 {
		t.Fatalf("roots %d orphans %d, want 1 and 2", sum.Roots, sum.Orphans)
	}
	if sum.BackendWallNS != 20 || sum.LamWallNS != 40 || sum.CoreSelfNS != 40 {
		t.Errorf("backend/lam/core wall = %d/%d/%d, want 20/40/40", sum.BackendWallNS, sum.LamWallNS, sum.CoreSelfNS)
	}
	if sum.LamSelfNS != 20+40 {
		t.Errorf("lam self = %d, want 60", sum.LamSelfNS)
	}
	if spans[3].Parent != 1 || spans[1].Parent != 0 || sum.RowsReturned != 2 {
		t.Errorf("parents %d %d rows %d", spans[3].Parent, spans[1].Parent, sum.RowsReturned)
	}
}

// TestSmoke runs every workload at reduced sizes, traced, twice with one
// seed: no script may fail, every layer must have recorded spans, the wall
// partition must add up to the root spans, and the count metrics must
// repeat exactly. It keeps the harness compiling against the functions it
// times.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range allWorkloads(true) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var first *result
			for pass := 0; pass < 2; pass++ {
				res, sum, err := runTraced(w, 3, 0.6, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || sum.Roots != w.tracedOps || sum.Orphans != 0 {
					t.Fatalf("correct %v, failed %d, roots %d of %d, orphans %d", res.Correct, res.Failed, sum.Roots, w.tracedOps, sum.Orphans)
				}
				layers := []string{spanLamOpen, spanLamExec, spanLamCommit, spanLamClose, spanBeExec, spanBeCommit}
				switch w.name {
				case "vital_2pc":
					layers = append(layers, spanLamPrepare, spanBePrepare, spanBeCkpt)
				case "comp_saga_csv":
					layers = append(layers, spanLamPrepare, spanBePrepare, spanBeAbort)
				case "cross_join_ship":
					layers = append(layers, spanBeCkpt)
					if sum.ShipExecs == 0 || sum.ShipRows == 0 {
						t.Error("no ship INSERT seen at the coordinator site")
					}
				}
				for _, l := range layers {
					if sum.Count[l] == 0 {
						t.Errorf("no %s span", l)
					}
				}
				parts := sum.CoreSelfNS + sum.LamWallNS + sum.BackendWallNS
				if math.Abs(float64(parts-sum.RootNS)) > 0.01*float64(sum.RootNS) {
					t.Errorf("layers add up to %d ns, roots to %d", parts, sum.RootNS)
				}
				for _, m := range perLayer {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("metric %s missing", m.Name)
					}
				}
				if first == nil {
					first = res
					continue
				}
				for _, name := range exactCounts {
					if a, b := first.Metrics[name].Value, res.Metrics[name].Value; a != b {
						t.Errorf("%s: %v then %v for one seed", name, a, b)
					}
				}
			}
		})
	}
}

// TestManifestMatches keeps BENCHMARK.json in step with the tables the
// benchmark reports from.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var man struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	ws := allWorkloads(false)
	if len(man.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, man.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the benchmark", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: manifest %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd)
	check("per_layer", man.PerLayer, perLayer)
}
