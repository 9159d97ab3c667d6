package core

import (
	"fmt"
	"testing"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/netfault"
	"msql/internal/topology"
)

// breakerFederation: the paper's continental healthy over TCP, united
// behind a netfault proxy, both lazily dialed so the federation's
// breaker policy wraps them. Each of extra names one more database of
// united's service, holding a flight table, so one breaker guards them
// all.
func breakerFederation(t *testing.T, pol lam.BreakerPolicy, timeout time.Duration, extra ...string) (*Federation, *netfault.Proxy) {
	t.Helper()
	fed := New()
	fed.CallTimeout = timeout
	fed.SetBreaker(pol)

	plan := &topology.Plan{Sites: paperSites("continental", "united")}
	for _, db := range extra {
		plan.Sites[1].Boot = append(plan.Sites[1].Boot, "CREATE DATABASE "+db,
			"CREATE TABLE "+db+".flight (fn INTEGER, rates FLOAT)",
			"INSERT INTO "+db+".flight VALUES (300, 120.0)")
	}
	contAddr := serveLAM(t, openSite(t, plan.Sites[0])).Addr()
	proxy, err := netfault.New(serveLAM(t, openSite(t, plan.Sites[1])).Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	setup := plan.Script(func(s ldbms.Spec) string {
		if s.DB == "united" {
			return proxy.Addr()
		}
		return contAddr
	})
	for _, db := range extra {
		setup += fmt.Sprintf("IMPORT DATABASE %s FROM SERVICE svc_unit;\n", db)
	}
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	return fed, proxy
}

// breakerState reads the circuit breaker of the client the federation
// dialed for site.
func breakerState(t *testing.T, fed *Federation, site string) lam.BreakerState {
	t.Helper()
	c, err := fed.Resolve(site)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*lam.Remote).BreakerState()
}

// Non-vital scope: continental must answer, united may degrade.
const breakerSelect = "USE continental VITAL united\nSELECT rate% FROM flight%"

// TestBreakerDegradesNonVitalSiteToPartialResults also guards the
// breaker's accounting of lazy opens: a remote Open sends nothing, so
// under the mutation "lazy Open records success" every statement's open
// resets the failure count and the loop below ends in "breaker never
// tripped".
func TestBreakerDegradesNonVitalSiteToPartialResults(t *testing.T) {
	const timeout = 150 * time.Millisecond
	fed, proxy := breakerFederation(t, lam.BreakerPolicy{
		Threshold: 2, Cooldown: time.Hour,
	}, timeout)

	// The site goes dark. Statements keep timing out against it until
	// the breaker trips at the failure threshold.
	proxy.SetBlackhole(true)
	deadline := time.Now().Add(30 * time.Second)
	for breakerState(t, fed, proxy.Addr()) != lam.BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		if _, err := fed.ExecScript(breakerSelect); err == nil {
			t.Fatal("statement against a black-holed site should fail before the breaker trips")
		}
	}

	// With the breaker open the degraded site fast-fails: the statement
	// answers from the reachable sites well inside one call timeout,
	// reporting the degraded scope entry instead of erroring.
	start := time.Now()
	results, err := fed.ExecScript(breakerSelect)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if elapsed >= timeout {
		t.Fatalf("degraded query took %v, want fast-fail under the %v call timeout", elapsed, timeout)
	}
	res := results[len(results)-1]
	if len(res.Degraded) != 1 || res.Degraded[0].Entry != "united" {
		t.Fatalf("degraded = %v, want [united]", res.Degraded)
	}
	if res.Degraded[0].Reason == "" {
		t.Fatalf("degraded entry carries no reason")
	}
	if res.Multitable == nil || len(res.Multitable.Tables) != 1 || res.Multitable.Tables[0].Database != "continental" {
		t.Fatalf("multitable = %+v, want continental's partial result", res.Multitable)
	}
	if len(res.Multitable.Tables[0].Rows) != 3 {
		t.Fatalf("continental rows = %d, want 3", len(res.Multitable.Tables[0].Rows))
	}
}

func TestBreakerVitalSiteStillErrors(t *testing.T) {
	const timeout = 150 * time.Millisecond
	fed, proxy := breakerFederation(t, lam.BreakerPolicy{
		Threshold: 1, Cooldown: time.Hour,
	}, timeout)
	proxy.SetBlackhole(true)

	// Trip the breaker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if breakerState(t, fed, proxy.Addr()) == lam.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		_, _ = fed.ExecScript(breakerSelect)
	}
	// A VITAL designator on the dark site must surface the failure, not
	// silently drop the partial result.
	if _, err := fed.ExecScript("USE continental united VITAL\nSELECT rate% FROM flight%"); err == nil {
		t.Fatal("vital site behind an open breaker must fail the query")
	}
}

func TestBreakerHalfOpensAfterCooldownAndRecovers(t *testing.T) {
	const timeout = 150 * time.Millisecond
	cooldown := 200 * time.Millisecond
	fed, proxy := breakerFederation(t, lam.BreakerPolicy{
		Threshold: 1, Cooldown: cooldown,
	}, timeout)
	proxy.SetBlackhole(true)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if breakerState(t, fed, proxy.Addr()) == lam.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		_, _ = fed.ExecScript(breakerSelect)
	}

	// Cooldown elapses: the breaker reports half-open and admits one
	// trial. The site is healthy again, so the trial closes the breaker
	// and the full multitable comes back.
	time.Sleep(cooldown + 50*time.Millisecond)
	if st := breakerState(t, fed, proxy.Addr()); st != lam.BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", st)
	}
	proxy.SetBlackhole(false)
	results, err := fed.ExecScript(breakerSelect)
	if err != nil {
		t.Fatalf("query after recovery failed: %v", err)
	}
	res := results[len(results)-1]
	if len(res.Degraded) != 0 {
		t.Fatalf("degraded = %v after recovery", res.Degraded)
	}
	if res.Multitable == nil || len(res.Multitable.Tables) != 2 {
		t.Fatalf("multitable = %+v, want both sites' partial results", res.Multitable)
	}
	if breakerState(t, fed, proxy.Addr()) != lam.BreakerClosed {
		t.Fatalf("state = %s, want closed after successful trial", breakerState(t, fed, proxy.Addr()))
	}
}

// TestBreakerTrialAdmitsEverySessionOfTheStatement: after the cooldown
// the first statement opens two databases behind the half-open breaker.
// The engine opens every connection before it sends anything, so the
// second Open must be admitted beside the trial, not refused as a second
// trial: both databases are VITAL, and a refusal would fail the query.
func TestBreakerTrialAdmitsEverySessionOfTheStatement(t *testing.T) {
	const timeout = 150 * time.Millisecond
	cooldown := 200 * time.Millisecond
	fed, proxy := breakerFederation(t, lam.BreakerPolicy{
		Threshold: 1, Cooldown: cooldown,
	}, timeout, "unitedb")
	proxy.SetBlackhole(true)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if breakerState(t, fed, proxy.Addr()) == lam.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		_, _ = fed.ExecScript(breakerSelect)
	}
	time.Sleep(cooldown + 50*time.Millisecond)
	proxy.SetBlackhole(false)

	results, err := fed.ExecScript("USE continental VITAL united VITAL unitedb VITAL\nSELECT rate% FROM flight%")
	if err != nil {
		t.Fatalf("query in the half-open breaker's trial: %v", err)
	}
	res := results[len(results)-1]
	if res.Multitable == nil || len(res.Multitable.Tables) != 3 {
		t.Fatalf("multitable = %+v, want all three databases' partial results", res.Multitable)
	}
	if st := breakerState(t, fed, proxy.Addr()); st != lam.BreakerClosed {
		t.Fatalf("state = %s, want closed after the trial statement", st)
	}
}
