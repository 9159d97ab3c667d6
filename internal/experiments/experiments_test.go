package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestE1Multitable(t *testing.T) {
	tbl, err := E1Multitable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	// avis row carries a rate, national's is NULL.
	for _, r := range tbl.Rows {
		if r[0] == "national" && r[3] != "NULL" {
			t.Fatalf("national rate = %s", r[3])
		}
		if r[0] == "avis" && r[3] == "NULL" {
			t.Fatal("avis rate lost")
		}
	}
}

func TestE2OutcomeMatrix(t *testing.T) {
	tbl, err := E2OutcomeMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	states := map[string]string{}
	for _, r := range tbl.Rows {
		states[r[0]] = r[4]
	}
	if states["no failures"] != "success" ||
		states["delta (NON VITAL) fails"] != "success" ||
		states["united (VITAL) fails at exec"] != "aborted" ||
		states["united (VITAL) fails at commit"] != "incorrect" {
		t.Fatalf("states = %v", states)
	}
}

func TestE3Paths(t *testing.T) {
	tbl, err := E3Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][4] != "success" {
		t.Fatalf("path 1 = %v", tbl.Rows[0])
	}
	if tbl.Rows[1][3] != "continental" {
		t.Fatalf("path 2 should compensate continental: %v", tbl.Rows[1])
	}
	for i := 1; i < 4; i++ {
		if tbl.Rows[i][4] != "aborted" {
			t.Fatalf("path %d = %v", i+1, tbl.Rows[i])
		}
	}
}

func TestE4States(t *testing.T) {
	tbl, err := E4States()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, r := range tbl.Rows {
		byName[r[0]] = r
	}
	if byName["all healthy"][1] != "continental AND national" {
		t.Fatalf("preferred = %v", byName["all healthy"])
	}
	if byName["national down"][1] != "delta AND avis" {
		t.Fatalf("fallback = %v", byName["national down"])
	}
	if !strings.Contains(byName["both rentals down"][1], "none") {
		t.Fatalf("failure = %v", byName["both rentals down"])
	}
}

func TestE5Program(t *testing.T) {
	prog, err := E5Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TASK T1 NOCOMMIT FOR continental",
		"TASK T2 FOR delta",
		"TASK T3 NOCOMMIT FOR united",
		"IF (T1=P) AND (T3=P) THEN",
		"COMMIT T1, T3;",
		"DOLSTATUS=1;",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("program missing %q", want)
		}
	}
}

func TestF1PhaseBreakdown(t *testing.T) {
	tbl, err := F1PhaseBreakdown(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestF2ImportScaling(t *testing.T) {
	tbl, err := F2ImportScaling([]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][2] != "2" || tbl.Rows[1][2] != "8" {
		t.Fatalf("GDD counts = %v", tbl.Rows)
	}
}

func TestB1Parallelism(t *testing.T) {
	tbl, err := B1Parallelism([]int{1, 2}, 50, 2, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestB2CommitModes(t *testing.T) {
	tbl, err := B2CommitModes(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestB3EarlyRelease(t *testing.T) {
	tbl, err := B3EarlyRelease(2, 2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestB4Substitution(t *testing.T) {
	tbl, err := B4Substitution([]int{1, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][3] != "1" || tbl.Rows[1][3] != "4" {
		t.Fatalf("generated counts = %v", tbl.Rows)
	}
}

func TestB5Transport(t *testing.T) {
	tbl, err := B5Transport(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestB6CrossJoin(t *testing.T) {
	tbl, err := B6CrossJoin([]int{20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][2] != "40" {
		t.Fatalf("shipped = %v", tbl.Rows)
	}
}

func TestB7ConsistencyLevels(t *testing.T) {
	tbl, err := B7ConsistencyLevels(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
}

func TestB8SyncGranularity(t *testing.T) {
	tbl, err := B8SyncGranularity(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	if !strings.Contains(tbl.Rows[0][2], "3 prepare/commit") {
		t.Fatalf("rounds = %v", tbl.Rows[0])
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Title:  "demo",
		Note:   "note",
		Header: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	out := tbl.Format()
	for _, want := range []string{"== X: demo ==", "note", "a", "bb", "--", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

// TestB10ObservabilityOverhead holds the observability plane to its
// budget: EXPLAIN ANALYZE with a catch-all slow-query log costs at most
// 2x the plain statement measured in the same run, and the reference
// join still decomposes into the same 15-node federation plan.
func TestB10ObservabilityOverhead(t *testing.T) {
	tbl, stats, err := B10ObservabilityOverhead(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	if stats.PlanNodes != 15 {
		t.Errorf("federation plan has %d nodes, want 15", stats.PlanNodes)
	}
	if stats.Analyze > 2*stats.Plain {
		t.Errorf("EXPLAIN ANALYZE %v is over 2x the plain statement's %v", stats.Analyze, stats.Plain)
	}
}

// TestE5GoldenProgram compares the regenerated §4.3 DOL listing against
// the checked-in golden file byte for byte.
func TestE5GoldenProgram(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "e5_paper_program.dol"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := E5Program()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("generated program diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
