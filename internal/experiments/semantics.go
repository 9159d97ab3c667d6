package experiments

import (
	"fmt"
	"sort"
	"strings"

	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/ldbms"
)

// The paper's queries, verbatim in structure.
const (
	Section2Query = `
USE avis national
LET car.type.status BE cars.cartype.carst
                       vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
`
	Section32Update = `
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`
	Section33Update = Section32Update + `
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
`
	Section34MultiTx = `
BEGIN MULTITRANSACTION
  USE continental delta
  LET fitab.snu.sstat.clname BE
      f838.seatnu.seatstatus.clientname
      fnu747.snu.sstat.passname
  UPDATE fitab
  SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE
      cars.code.carst
      vehicle.vcode.vstat
  UPDATE cartab
  SET cstat = 'TAKEN', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'FREE');
  COMMIT
    continental AND national
    delta AND avis
END MULTITRANSACTION
`
)

// RunSelect executes an MSQL script against a fresh demo federation and
// returns the last result.
func runScript(opts demo.Options, faults map[string]ldbms.FaultRule, script string) (*core.Result, error) {
	fed, err := demo.Build(opts)
	if err != nil {
		return nil, err
	}
	defer fed.CloseServers()
	for svc, rule := range faults {
		fed.Server(svc).Faults().Add(rule)
	}
	results, err := fed.ExecScript(script)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("experiments: script produced no results")
	}
	return results[len(results)-1], nil
}

// E1Multitable reproduces the Section 2 example: the multitable contents
// with heterogeneity resolved.
func E1Multitable() (*Table, error) {
	res, err := runScript(demo.Options{Seed: 1}, nil, Section2Query)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E1",
		Title:  "Section 2 multiple query — multitable result",
		Note:   "naming heterogeneity via LET/%code, schema heterogeneity via ~rate (NULL where absent)",
		Header: []string{"database", "code", "type", "rate"},
	}
	if res.Multitable == nil {
		return nil, fmt.Errorf("E1: no multitable")
	}
	for _, tab := range res.Multitable.Tables {
		for _, row := range tab.Rows {
			t.AddRow(tab.Database, row[0].String(), row[1].String(), row[2].String())
		}
	}
	return t, nil
}

// e2Scenario is one row of the vital-set outcome matrix.
type e2Scenario struct {
	name   string
	faults map[string]ldbms.FaultRule
}

// E2OutcomeMatrix reproduces the Section 3.2 semantics: the global state
// of the vital update under injected local failures.
func E2OutcomeMatrix() (*Table, error) {
	scenarios := []e2Scenario{
		{"no failures", nil},
		{"delta (NON VITAL) fails", map[string]ldbms.FaultRule{
			"svc_delta": {Op: ldbms.FaultExec, Database: "delta"}}},
		{"united (VITAL) fails at exec", map[string]ldbms.FaultRule{
			"svc_unit": {Op: ldbms.FaultExec, Database: "united"}}},
		{"continental (VITAL) fails at prepare", map[string]ldbms.FaultRule{
			"svc_cont": {Op: ldbms.FaultPrepare, Database: "continental"}}},
		{"united (VITAL) fails at commit", map[string]ldbms.FaultRule{
			"svc_unit": {Op: ldbms.FaultCommit, Database: "united"}}},
	}
	t := &Table{
		ID:     "E2",
		Title:  "Section 3.2 vital update — outcome matrix under local failures",
		Note:   "success = all VITAL committed; aborted = all VITAL rolled back; incorrect = mixed (commit-time fault)",
		Header: []string{"scenario", "continental", "delta", "united", "global state", "DOLSTATUS"},
	}
	for _, sc := range scenarios {
		res, err := runScript(demo.Options{Seed: 1}, sc.faults, Section32Update)
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", sc.name, err)
		}
		t.AddRow(sc.name,
			res.TaskStates["continental"].String(),
			res.TaskStates["delta"].String(),
			res.TaskStates["united"].String(),
			res.State.String(),
			fmt.Sprintf("%d", res.Status))
	}
	return t, nil
}

// E3Paths reproduces the four execution paths of Section 3.3, with
// continental on an autocommit-only service and a COMP clause.
func E3Paths() (*Table, error) {
	scenarios := []e2Scenario{
		{"continental C, united P", nil},
		{"continental C, united A", map[string]ldbms.FaultRule{
			"svc_unit": {Op: ldbms.FaultExec, Database: "united"}}},
		{"continental A, united P", map[string]ldbms.FaultRule{
			"svc_cont": {Op: ldbms.FaultExec, Database: "continental"}}},
		{"continental A, united A", map[string]ldbms.FaultRule{
			"svc_cont": {Op: ldbms.FaultExec, Database: "continental"},
			"svc_unit": {Op: ldbms.FaultExec, Database: "united"}}},
	}
	wantVerdict := []string{
		"MSQL query successful",
		"continental compensated; successfully aborted",
		"united rolled back; successfully aborted",
		"successfully aborted",
	}
	t := &Table{
		ID:     "E3",
		Title:  "Section 3.3 compensation — the four execution paths",
		Note:   "continental on an autocommit-only service with a COMP clause; united 2PC",
		Header: []string{"path", "continental", "united", "compensated", "global state", "paper verdict"},
	}
	for i, sc := range scenarios {
		res, err := runScript(demo.Options{Seed: 1, ContinentalAutoCommit: true}, sc.faults, Section33Update)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", sc.name, err)
		}
		comp := "-"
		if len(res.Compensated) > 0 {
			comp = strings.Join(res.Compensated, ",")
		}
		t.AddRow(sc.name,
			res.TaskStates["continental"].String(),
			res.TaskStates["united"].String(),
			comp,
			res.State.String(),
			wantVerdict[i])
	}
	return t, nil
}

// E4States reproduces the travel-agent multitransaction preference order.
func E4States() (*Table, error) {
	scenarios := []e2Scenario{
		{"all healthy", nil},
		{"national down", map[string]ldbms.FaultRule{
			"svc_natl": {Op: ldbms.FaultExec, Database: "national"}}},
		{"continental down", map[string]ldbms.FaultRule{
			"svc_cont": {Op: ldbms.FaultExec, Database: "continental"}}},
		{"both rentals down", map[string]ldbms.FaultRule{
			"svc_natl": {Op: ldbms.FaultExec, Database: "national"},
			"svc_avis": {Op: ldbms.FaultExec, Database: "avis"}}},
		{"both airlines down", map[string]ldbms.FaultRule{
			"svc_cont":  {Op: ldbms.FaultExec, Database: "continental"},
			"svc_delta": {Op: ldbms.FaultExec, Database: "delta"}}},
	}
	t := &Table{
		ID:     "E4",
		Title:  "Section 3.4 multitransaction — acceptable termination states in preference order",
		Note:   "states: [0] continental AND national (preferred), [1] delta AND avis; 2 = failure",
		Header: []string{"scenario", "achieved state", "DOLSTATUS", "member states"},
	}
	for _, sc := range scenarios {
		res, err := runScript(demo.Options{Seed: 1}, sc.faults, Section34MultiTx)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", sc.name, err)
		}
		achieved := "(none — rolled back)"
		if res.AchievedState != nil {
			achieved = strings.Join(res.AchievedState, " AND ")
		}
		var members []string
		for _, name := range []string{"continental", "delta", "avis", "national"} {
			if st, ok := res.TaskStates[name]; ok {
				members = append(members, name+"="+st.Letter())
			}
		}
		sort.Strings(members)
		t.AddRow(sc.name, achieved, fmt.Sprintf("%d", res.Status), strings.Join(members, " "))
	}
	return t, nil
}

// E5Program regenerates the Section 4.3 DOL listing for the Section 3.2
// update.
func E5Program() (string, error) {
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		return "", err
	}
	defer fed.CloseServers()
	fed.DryRun = true
	results, err := fed.ExecScript(Section32Update)
	if err != nil {
		return "", err
	}
	for _, r := range results {
		if r.DOL != "" {
			return r.DOL, nil
		}
	}
	return "", fmt.Errorf("E5: no program generated")
}
