package pipes

import (
	"testing"

	"pipes/internal/nexmark"
	"pipes/internal/planio"
)

func TestDeregisterQueryReleasesOperators(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 8, MaxEvents: 100}, nil)
	dsms := NewDSMS(Config{MemoryBudget: 1 << 20})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)

	q1, err := dsms.RegisterQuery(`SELECT bids.price FROM bids [RANGE 60000], asks [RANGE 60000]
		WHERE bids.auction = asks.auction`)
	if err == nil {
		t.Fatal("expected unknown-stream error") // asks not registered
	}
	_ = q1

	qa, err := dsms.RegisterQuery(`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := dsms.RegisterQuery(`SELECT auction FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	full := dsms.Optimizer.OperatorCount()
	if err := dsms.DeregisterQuery(qa); err != nil {
		t.Fatal(err)
	}
	if got := dsms.Optimizer.OperatorCount(); got >= full {
		t.Fatalf("operator count did not shrink: %d of %d", got, full)
	}
	if len(dsms.Queries()) != 1 {
		t.Fatalf("query registry holds %d queries", len(dsms.Queries()))
	}
	// The surviving query still works.
	col := NewCollector("col", 1)
	qb.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	col.Wait()

	if err := dsms.DeregisterQuery(qa); err == nil {
		t.Fatal("double deregistration accepted")
	}
}

func TestDeregisterForeignQueryRejected(t *testing.T) {
	d1 := NewDSMS(Config{})
	d2 := NewDSMS(Config{})
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 9, MaxEvents: 10}, nil)
	d1.RegisterStream("bids", gen.BidSource("bids"), 10)
	q, err := d1.RegisterQuery("SELECT auction FROM bids [NOW]")
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.DeregisterQuery(q); err == nil {
		t.Fatal("foreign query accepted")
	}
	if err := d2.DeregisterQuery(nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestRegisterPlanFromXMLRoundTrip(t *testing.T) {
	// Fig. 2 workflow: author a query, save the plan as XML, load it into
	// a fresh engine and run it.
	parsed, err := ParseCQL(`SELECT auction FROM bids [RANGE 60000] WHERE price > 500`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromQuery(parsed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := planio.Encode(plan)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := planio.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	gen := nexmark.NewGenerator(nexmark.Config{Seed: 10, MaxEvents: 3000}, nil)
	dsms := NewDSMS(Config{})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)
	q, err := dsms.RegisterPlan(loaded)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("col", 1)
	q.Subscribe(col)
	dsms.Start()
	dsms.Wait()
	col.Wait()
	if col.Len() == 0 {
		t.Fatal("loaded plan produced nothing")
	}
	for _, v := range col.Values() {
		if _, ok := v.(Tuple).Get("auction"); !ok {
			t.Fatalf("bad result %v", v)
		}
	}
}

// TestDeregisterDropsDecorators churns queries that share operators with
// standing ones: every kill must take the decorators of the operators it
// spliced out with it, so Monitors ends where the standing queries alone
// put it.
func TestDeregisterDropsDecorators(t *testing.T) {
	gen := nexmark.NewGenerator(nexmark.Config{Seed: 11, MaxEvents: 100}, nil)
	dsms := NewDSMS(Config{MonitorQueries: true})
	dsms.RegisterStream("bids", gen.BidSource("bids"), 1000)
	for _, text := range []string{
		`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 500`,
		`SELECT auction FROM bids [RANGE 60000] WHERE price > 500`,
		`SELECT auction, COUNT(*) AS n FROM bids [RANGE 60000] GROUP BY auction`,
	} {
		if _, err := dsms.RegisterQuery(text); err != nil {
			t.Fatal(err)
		}
	}
	standing := len(dsms.Monitors())
	if standing == 0 || standing != dsms.Optimizer.OperatorCount() {
		t.Fatalf("standing queries: %d monitors for %d operators", standing, dsms.Optimizer.OperatorCount())
	}
	churn := []string{
		`SELECT auction, price FROM bids [RANGE 60000] WHERE price > 900`,
		`SELECT bidder FROM bids [RANGE 60000] WHERE price > 500`,
		`SELECT auction, MAX(price) AS top FROM bids [RANGE 60000] GROUP BY auction`,
	}
	for i := 0; i < 40; i++ {
		q, err := dsms.RegisterQuery(churn[i%len(churn)])
		if err != nil {
			t.Fatal(err)
		}
		if q.Instance.SharedNodes == 0 || q.Instance.NewNodes == 0 {
			t.Fatalf("churn query %d shares %d and builds %d operators; want both", i, q.Instance.SharedNodes, q.Instance.NewNodes)
		}
		if err := dsms.DeregisterQuery(q); err != nil {
			t.Fatal(err)
		}
		if got := len(dsms.Monitors()); got != standing {
			t.Fatalf("after %d submit/kill pairs: %d monitors, standing queries alone have %d", i+1, got, standing)
		}
	}
	if got := dsms.Optimizer.OperatorCount(); got != standing {
		t.Fatalf("operators = %d, want %d", got, standing)
	}
}
