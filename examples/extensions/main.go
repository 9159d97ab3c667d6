// Extensions: the §2 language features implemented as multidatabase-level
// definitions — virtual databases (CREATE MULTIDATABASE), multidatabase
// views (CREATE MULTIVIEW), interdatabase triggers (CREATE TRIGGER) — and
// the COMMIT EFFECTIVE safeguard for racing reservations.
package main

import (
	"fmt"
	"log"
	"strings"

	"msql/internal/core"
	"msql/internal/demo"
)

func main() {
	fed, err := demo.Build(demo.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	show := func(title, script string) []*core.Result {
		fmt.Println("== " + title + " ==")
		results, err := fed.ExecScript(script)
		if err != nil {
			log.Fatalf("%s: %v", title, err)
		}
		for _, r := range results {
			switch {
			case r.Kind == core.KindSelect && r.Multitable != nil:
				fmt.Print(r.Multitable.Format())
			case r.Kind == core.KindSync:
				fmt.Printf("sync: %s\n", r.State)
			case r.Kind == core.KindMultiTx:
				if r.AchievedState != nil {
					fmt.Printf("multitransaction: committed %s\n", strings.Join(r.AchievedState, " AND "))
				} else {
					fmt.Printf("multitransaction: %s (no acceptable state)\n", r.State)
				}
			}
			for _, trig := range r.TriggersFired {
				fmt.Printf("(trigger %s fired)\n", trig)
			}
		}
		fmt.Println()
		return results
	}

	// 1. Virtual databases: name the three airlines once, use everywhere.
	show("virtual database in USE", `
CREATE MULTIDATABASE airlines (continental, delta, united);
USE airlines
SELECT day FROM flight% WHERE sour% = 'Houston'
`)

	// 2. A multidatabase view over the car-rental federation.
	show("multidatabase view", `
USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
CREATE MULTIVIEW available_cars AS
SELECT %code, type, ~rate FROM car WHERE status = 'available';
SELECT * FROM available_cars
`)

	// 3. An interdatabase trigger: every committed fare change on delta
	// is mirrored into an audit table at avis.
	show("interdatabase trigger", `
USE avis
CREATE TABLE fare_audit (note CHAR(40));
CREATE TRIGGER fare_mirror ON delta AFTER UPDATE EXECUTE
INSERT INTO fare_audit (note) VALUES ('delta fares changed');
USE delta
UPDATE flight SET rate = rate * 1.05 WHERE source = 'Houston'
`)
	show("audit table after the trigger", `
USE avis
SELECT note FROM fare_audit
`)

	// 4. COMMIT EFFECTIVE: with no FREE national vehicle left, the
	// reservation matches zero rows; EFFECTIVE refuses the vacuous state.
	show("COMMIT EFFECTIVE refuses vacuous reservations", `
USE national
UPDATE vehicle SET vstat = 'TAKEN' WHERE vstat = 'FREE'
BEGIN MULTITRANSACTION
USE national
UPDATE vehicle SET client = 'wenders'
WHERE vcode = (SELECT MIN(vcode) FROM vehicle WHERE vstat = 'FREE')
COMMIT EFFECTIVE national
END MULTITRANSACTION
`)
}
