package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCollectorTopAndRoutes(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 100; i++ {
		c.Record("SELECT fast", "query", 10*time.Microsecond, 1, false)
	}
	for i := 0; i < 5; i++ {
		c.Record("SELECT slow", "exec", 5*time.Millisecond, 40, false)
	}
	c.Record("SELECT erring", "query", time.Millisecond, 0, true)

	top := c.Top(2, "p99")
	if len(top) != 2 || top[0].SQL != "SELECT slow" {
		t.Fatalf("Top(2, p99) = %+v, want SELECT slow first", top)
	}
	if top[0].Route != "exec" || top[0].Rows != 200 || top[0].Count != 5 {
		t.Fatalf("slow summary wrong: %+v", top[0])
	}
	byTotal := c.Top(0, "total")
	if len(byTotal) != 3 {
		t.Fatalf("Top(0) returned %d summaries, want 3", len(byTotal))
	}
	for _, s := range byTotal {
		if s.SQL == "SELECT erring" && s.Errors != 1 {
			t.Fatalf("error count not recorded: %+v", s)
		}
	}
}

func TestCollectorOverflowCap(t *testing.T) {
	c := NewCollector(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxStatements; i++ {
				c.Record(fmt.Sprintf("q-%d-%d", g, i), "query", time.Microsecond, 0, false)
			}
		}(g)
	}
	wg.Wait()
	n := 0
	total := uint64(0)
	c.stats.Range(func(_, v any) bool {
		n++
		total += v.(*QueryStat).hist.Count()
		return true
	})
	// LoadOrStore races can overshoot the cap by at most the number of
	// concurrent recorders; nothing may be lost.
	if n > maxStatements+8 {
		t.Fatalf("collector grew to %d stats, cap is %d", n, maxStatements)
	}
	if total != 4*maxStatements {
		t.Fatalf("recorded %d observations, want %d", total, 4*maxStatements)
	}
	if _, ok := c.stats.Load(overflowKey); !ok {
		t.Fatal("overflow key missing after exceeding the cap")
	}
}

func TestSlowLogAdmissionAndFloor(t *testing.T) {
	l := NewSlowLog(3)
	for i := 1; i <= 5; i++ {
		l.Offer(SlowEntry{SQL: fmt.Sprintf("q%d", i), LatencyNs: int64(i) * 1000, At: time.Now()})
	}
	es := l.Entries()
	if len(es) != 3 || es[0].SQL != "q5" || es[2].SQL != "q3" {
		t.Fatalf("entries = %+v, want q5,q4,q3", es)
	}
	if l.Floor() != 3000 {
		t.Fatalf("floor = %d, want 3000", l.Floor())
	}
	if l.Offer(SlowEntry{SQL: "meh", LatencyNs: 2999}) {
		t.Fatal("below-floor entry admitted")
	}
	if !l.Offer(SlowEntry{SQL: "spike", LatencyNs: 99999}) {
		t.Fatal("above-floor entry rejected")
	}
}

func TestSlowLogPlanCapture(t *testing.T) {
	l := NewSlowLog(4)
	l.Offer(SlowEntry{SQL: "SELECT x", LatencyNs: 1000, At: time.Unix(1, 0)})
	l.Offer(SlowEntry{SQL: "SELECT x", LatencyNs: 2000, At: time.Unix(2, 0)})
	if !l.NeedsPlan("SELECT x") {
		t.Fatal("NeedsPlan should report plan-less entries")
	}
	if !l.AttachPlan("SELECT x", "the plan") {
		t.Fatal("AttachPlan found no entry")
	}
	es := l.Entries()
	// The newest plan-less entry (At=2, which sorted first) gets it.
	if es[0].Plan != "the plan" || es[1].Plan != "" {
		t.Fatalf("plan attached to wrong entry: %+v", es)
	}
	if l.AttachPlan("SELECT y", "nope") {
		t.Fatal("AttachPlan matched a missing SQL")
	}
}

func TestSlowLogRedact(t *testing.T) {
	l := NewSlowLog(2)
	l.SetRedact(true)
	l.Offer(SlowEntry{SQL: "q", Params: []string{"secret"}, LatencyNs: 10})
	if es := l.Entries(); len(es) != 1 || es[0].Params != nil {
		t.Fatalf("params not redacted: %+v", es)
	}
}

func TestCollectorTxCounts(t *testing.T) {
	c := NewCollector(0)
	c.RecordTx(TxCommitted)
	c.RecordTx(TxCommitted)
	c.RecordTx(TxConflicted)
	c.RecordTx(TxRolledBack)
	commits, conflicts, rollbacks := c.TxCounts()
	if commits != 2 || conflicts != 1 || rollbacks != 1 {
		t.Fatalf("tx counts = %d/%d/%d", commits, conflicts, rollbacks)
	}
}
