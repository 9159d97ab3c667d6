// Quickstart: build a two-database federation from scratch and run the
// paper's Section 2 multiple query, resolving naming heterogeneity (LET,
// %code) and schema heterogeneity (~rate) across the avis and national
// car-rental databases.
package main

import (
	"fmt"
	"log"

	"msql/internal/core"
	"msql/internal/ldbms"
)

func main() {
	fed := core.New()
	defer fed.CloseServers()

	// 1. Stand up two autonomous local database systems. Avis runs on an
	// Oracle-like service (2PC, DDL rollback); National on a Sybase-like
	// single-database service.
	serve(fed, ldbms.Spec{Service: "svc_avis", Profile: ldbms.ProfileOracleLike(), DB: "avis", Boot: []string{
		`CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(12), client CHAR(20))`,
		`INSERT INTO cars VALUES
			(1, 'suv', 49.5, 'available', NULL),
			(2, 'compact', 29.5, 'rented', 'smith'),
			(3, 'luxury', 99.0, 'available', NULL)`,
	}})
	serve(fed, ldbms.Spec{Service: "svc_natl", Profile: ldbms.ProfileSybaseLike(), DB: "national", Boot: []string{
		`CREATE TABLE vehicle (vcode INTEGER, vty CHAR(20), vstat CHAR(12), client CHAR(20))`,
		`INSERT INTO vehicle VALUES
			(11, 'sedan', 'available', NULL),
			(12, 'truck', 'rented', 'jones')`,
	}})

	// 2. Incorporate the services into the federation and import their
	// local conceptual schemas into the Global Data Dictionary.
	_, err := fed.ExecScript(`
INCORPORATE SERVICE svc_avis CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_natl CONNECTMODE NOCONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE avis FROM SERVICE svc_avis;
IMPORT DATABASE national FROM SERVICE svc_natl;
`)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The Section 2 multiple query: one compact MSQL statement that
	// fans out to both databases and returns a multitable.
	results, err := fed.ExecScript(`
USE avis national
LET car.type.status BE cars.cartype.carst
                       vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Kind != core.KindSelect || r.Multitable == nil {
			continue
		}
		fmt.Println("multitable (one table per database):")
		fmt.Println(r.Multitable.Format())
		flat, err := r.Multitable.Flatten()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("flattened:")
		fmt.Println(flat.Format())
	}
}

// serve opens the LDBMS spec describes, with its database booted, and
// serves it to fed on a loopback LAM.
func serve(fed *core.Federation, spec ldbms.Spec) {
	srv, err := ldbms.Open(spec)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fed.AddLocalServer(srv); err != nil {
		log.Fatal(err)
	}
}
