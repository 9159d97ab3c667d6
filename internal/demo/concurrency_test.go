package demo

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"msql/internal/core"
	"msql/internal/ldbms"
)

const fareUpdateScript = `
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`

// attach builds a second federation around the same running LAMs,
// simulating another multidatabase user of the same autonomous LDBSs.
func attach(t *testing.T, primary *core.Federation) *core.Federation {
	t.Helper()
	fed := core.New()
	for _, svc := range []string{"svc_cont", "svc_delta", "svc_unit", "svc_avis", "svc_natl"} {
		c, err := primary.Resolve(svc)
		if err != nil {
			t.Fatal(err)
		}
		fed.RegisterClient(svc, c)
	}
	setup := `
INCORPORATE SERVICE svc_cont CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_delta CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_unit CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE COMMIT DROP COMMIT;
INCORPORATE SERVICE svc_avis CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_natl CONNECTMODE NOCONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE continental FROM SERVICE svc_cont;
IMPORT DATABASE delta FROM SERVICE svc_delta;
IMPORT DATABASE united FROM SERVICE svc_unit;
IMPORT DATABASE avis FROM SERVICE svc_avis;
IMPORT DATABASE national FROM SERVICE svc_natl;
`
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestConcurrentMultitransactions races two travel agents booking trips
// against the same autonomous databases. Whatever interleaving the locks
// produce, no seat or car may be double-booked, and every committed trip
// has exactly one seat and one car.
func TestConcurrentMultitransactions(t *testing.T) {
	primary, err := Build(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	secondary := attach(t, primary)

	script := func(client string) string {
		return fmt.Sprintf(`
BEGIN MULTITRANSACTION
  USE continental delta
  LET fitab.snu.sstat.clname BE
      f838.seatnu.seatstatus.clientname
      fnu747.snu.sstat.passname
  UPDATE fitab
  SET sstat = 'TAKEN', clname = '%s'
  WHERE snu = ( SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE
      cars.code.carst
      vehicle.vcode.vstat
  UPDATE cartab
  SET cstat = 'TAKEN', client = '%s'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'FREE');
  COMMIT EFFECTIVE
    continental AND national
    delta AND avis
END MULTITRANSACTION`, client, client)
	}

	var wg sync.WaitGroup
	outcomes := make([]*core.Result, 2)
	errs := make([]error, 2)
	feds := []*core.Federation{primary, secondary}
	clients := []string{"wenders", "herzog"}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := feds[i].ExecScript(script(clients[i]))
			if err != nil {
				errs[i] = err
				return
			}
			outcomes[i] = results[len(results)-1]
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}

	count := func(svc, db, sql string) int64 {
		srv := primary.Server(svc)
		sess, err := srv.OpenSession(db)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		return n
	}

	for _, client := range clients {
		seats := count("svc_cont", "continental",
			"SELECT COUNT(seatnu) FROM f838 WHERE clientname = '"+client+"'") +
			count("svc_delta", "delta",
				"SELECT COUNT(snu) FROM fnu747 WHERE passname = '"+client+"'")
		cars := count("svc_avis", "avis",
			"SELECT COUNT(code) FROM cars WHERE client = '"+client+"'") +
			count("svc_natl", "national",
				"SELECT COUNT(vcode) FROM vehicle WHERE client = '"+client+"'")
		if seats > 1 || cars > 1 {
			t.Fatalf("%s double-booked: %d seats, %d cars", client, seats, cars)
		}
		if (seats == 1) != (cars == 1) {
			t.Fatalf("%s has a partial trip: %d seats, %d cars", client, seats, cars)
		}
	}
	// Whatever happened, the databases never recorded more reservations
	// than there were free resources.
	taken := count("svc_natl", "national", "SELECT COUNT(vcode) FROM vehicle WHERE vstat = 'TAKEN'")
	if taken > 1 {
		t.Fatalf("national had 1 free vehicle, %d taken", taken)
	}
}

// TestReducedIsolationVisibleThenCompensated demonstrates §3.4's relaxed
// isolation: with continental on an autocommit-only service, its
// subquery's result becomes visible to other users before the global
// query decides — and is then semantically undone by compensation when
// united fails.
func TestReducedIsolationVisibleThenCompensated(t *testing.T) {
	primary, err := Build(Options{Seed: 1, ContinentalAutoCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	observer := core.New()
	cont, err := primary.Resolve("svc_cont")
	if err != nil {
		t.Fatal(err)
	}
	observer.RegisterClient("svc_cont", cont)
	if _, err := observer.ExecScript(`
INCORPORATE SERVICE svc_cont CONNECTMODE CONNECT COMMITMODE COMMIT;
IMPORT DATABASE continental FROM SERVICE svc_cont;
`); err != nil {
		t.Fatal(err)
	}
	readRate := func() float64 {
		results, err := observer.ExecScript("USE continental\nSELECT rate FROM flights WHERE flnu = 100")
		if err != nil {
			t.Fatal(err)
		}
		sel := results[len(results)-1]
		f, _ := sel.Multitable.Tables[0].Rows[0][0].AsFloat()
		return f
	}

	// Slow united down and make it fail, so continental's autocommitted
	// update stays observable for a while before compensation.
	primary.Server("svc_unit").SetLatency(300 * time.Millisecond)
	primary.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})

	done := make(chan error, 1)
	go func() {
		_, err := primary.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
`)
		done <- err
	}()

	// Poll until the partial result becomes visible (continental commits
	// immediately; united is still sleeping).
	sawPartial := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r := readRate(); r > 105 {
			sawPartial = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !sawPartial {
		t.Fatal("partial result never became visible — isolation stronger than the paper's model")
	}
	// After the global abort, compensation restored the fare.
	if r := readRate(); r < 99.9 || r > 100.1 {
		t.Fatalf("rate after compensation = %v", r)
	}
}

// TestConcurrentVitalUpdates runs the fare update from two federations at
// once; the vital invariant must hold for both.
func TestConcurrentVitalUpdates(t *testing.T) {
	primary, err := Build(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	secondary := attach(t, primary)
	var wg sync.WaitGroup
	states := make([]core.GlobalState, 2)
	errs := make([]error, 2)
	for i, fed := range []*core.Federation{primary, secondary} {
		wg.Add(1)
		go func(i int, fed *core.Federation) {
			defer wg.Done()
			results, err := fed.ExecScript(fareUpdateScript)
			if err != nil {
				errs[i] = err
				return
			}
			states[i] = results[len(results)-1].State
		}(i, fed)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("agent %d: %v", i, errs[i])
		}
		if states[i] == core.StateIncorrect {
			t.Fatalf("agent %d reached the incorrect state", i)
		}
	}
}
