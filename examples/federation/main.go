// Federation: a distributed deployment of the execution environment. Two
// LDBMSs are served over TCP by their Local Access Managers (as the
// Narada environment served Oracle and Ingres on the Houston campus
// network); the federation incorporates them by site address, imports
// their schemas over the wire, and executes a cross-database join whose
// partial results are shipped to a coordinator.
package main

import (
	"fmt"
	"log"

	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/ldbms"
)

func main() {
	// Remote site 1: continental on an Oracle-like server.
	cont := mustOpen(ldbms.Spec{Service: "svc_cont", Profile: ldbms.ProfileOracleLike(), DB: "continental", Boot: []string{
		`CREATE TABLE flights (flnu INTEGER, source CHAR(20), destination CHAR(20), day CHAR(10), rate FLOAT)`,
		`INSERT INTO flights VALUES
			(100, 'Houston', 'San Antonio', 'mon', 100.0),
			(101, 'Houston', 'Dallas', 'tue', 80.0),
			(102, 'Austin', 'San Antonio', 'mon', 60.0)`,
	}})
	contSrv, err := lam.Serve("127.0.0.1:0", cont)
	if err != nil {
		log.Fatal(err)
	}
	defer contSrv.Close()

	// Remote site 2: united on an Ingres-like server.
	united := mustOpen(ldbms.Spec{Service: "svc_unit", Profile: ldbms.ProfileIngresLike(), DB: "united", Boot: []string{
		`CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), day CHAR(10), rates FLOAT)`,
		`INSERT INTO flight VALUES
			(300, 'Houston', 'San Antonio', 'mon', 120.0),
			(301, 'Houston', 'Austin', 'fri', 70.0)`,
	}})
	unitSrv, err := lam.Serve("127.0.0.1:0", united)
	if err != nil {
		log.Fatal(err)
	}
	defer unitSrv.Close()

	fmt.Printf("LAMs listening: continental at %s, united at %s\n\n", contSrv.Addr(), unitSrv.Addr())

	// The federation knows the services only by their TCP sites.
	fed := core.New()
	setup := fmt.Sprintf(`
INCORPORATE SERVICE svc_cont SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_unit SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE COMMIT DROP COMMIT;
IMPORT DATABASE continental FROM SERVICE svc_cont;
IMPORT DATABASE united FROM SERVICE svc_unit;
`, contSrv.Addr(), unitSrv.Addr())
	if _, err := fed.ExecScript(setup); err != nil {
		log.Fatal(err)
	}
	fmt.Println("imported GDD databases:", fed.GDD.DatabaseNames())

	// A multiple query over the wire.
	results, err := fed.ExecScript(`
USE continental united
SELECT fl% FROM flight% WHERE day = 'mon'
`)
	if err != nil {
		log.Fatal(err)
	}
	printSelects(results)

	// A cross-database join: continental's partial result and united's
	// partial result are shipped to the coordinator, which evaluates the
	// modified global query.
	results, err = fed.ExecScript(`
USE continental united
SELECT c.flnu, u.fn, c.rate, u.rates
FROM continental.flights c, united.flight u
WHERE c.day = u.day AND c.rate < u.rates
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cross-database join (shipped to coordinator):")
	printSelects(results)
}

func printSelects(results []*core.Result) {
	for _, r := range results {
		if r.Kind == core.KindSelect && r.Multitable != nil {
			fmt.Println(r.Multitable.Format())
		}
		for _, s := range r.Skipped {
			fmt.Printf("  (skipped %s: %s)\n", s.Entry.Name, s.Reason)
		}
	}
}

// mustOpen stands up an in-memory LDBMS with its database booted.
func mustOpen(spec ldbms.Spec) *ldbms.Server {
	srv, err := ldbms.Open(spec)
	if err != nil {
		log.Fatal(err)
	}
	return srv
}
