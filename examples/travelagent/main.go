// Travelagent: the paper's Section 3.4 flexible multitransaction. A trip
// plan needs one flight (Continental or Delta — function replication) and
// one car (Avis or National). The COMMIT clause lists the acceptable
// termination states in preference order:
//
//	continental AND national   (preferred)
//	delta AND avis             (acceptable)
//
// All four reservations are attempted; the first reachable acceptable
// state is committed and everything outside it is rolled back. The
// example shows the preferred outcome, the fallback when National fails,
// and total failure when both car databases are down.
package main

import (
	"fmt"
	"log"
	"strings"

	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/ldbms"
)

const tripPlan = `
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

func main() {
	fmt.Println("== all databases healthy: preferred state wins ==")
	run(nil)

	fmt.Println("\n== national down: fallback state delta AND avis ==")
	run(map[string]ldbms.FaultRule{
		"svc_natl": {Op: ldbms.FaultExec, Database: "national"},
	})

	fmt.Println("\n== both car databases down: trip planning fails, everything rolls back ==")
	run(map[string]ldbms.FaultRule{
		"svc_natl": {Op: ldbms.FaultExec, Database: "national"},
		"svc_avis": {Op: ldbms.FaultExec, Database: "avis"},
	})
}

func run(faults map[string]ldbms.FaultRule) {
	fed, err := demo.Build(demo.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	for svc, rule := range faults {
		fed.Server(svc).Faults().Add(rule)
	}
	results, err := fed.ExecScript(tripPlan)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Kind != core.KindMultiTx {
			continue
		}
		if r.AchievedState != nil {
			fmt.Printf("committed acceptable state %d: %s\n", r.Status, strings.Join(r.AchievedState, " AND "))
		} else {
			fmt.Printf("no acceptable state committed (DOLSTATUS=%d): trip plan %s\n", r.Status, r.State)
		}
		for _, name := range []string{"continental", "delta", "avis", "national"} {
			if st, ok := r.TaskStates[name]; ok {
				fmt.Printf("  %-12s %s\n", name, st)
			}
		}
	}
	// Inspect what each database recorded.
	probes := []struct{ svc, db, sql, label string }{
		{"svc_cont", "continental", "SELECT COUNT(*) FROM f838 WHERE clientname = 'wenders'", "continental seats for wenders"},
		{"svc_delta", "delta", "SELECT COUNT(*) FROM fnu747 WHERE passname = 'wenders'", "delta seats for wenders"},
		{"svc_avis", "avis", "SELECT COUNT(*) FROM cars WHERE client = 'wenders'", "avis cars for wenders"},
		{"svc_natl", "national", "SELECT COUNT(*) FROM vehicle WHERE client = 'wenders'", "national cars for wenders"},
	}
	for _, p := range probes {
		sess, err := fed.Server(p.svc).OpenSession(p.db)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Exec(p.sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-32s %v\n", p.label, res.Rows[0][0])
		sess.Close()
	}
}
