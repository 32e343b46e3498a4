package serving

import (
	"fmt"
	"reflect"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/par"
	"dataai/internal/resilient"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// newBareCluster builds a minimal n-instance cluster for direct route()
// tests: fresh idle instances, closed breakers, no fault plan.
func newBareCluster(policy RouterPolicy, n int) *cluster {
	eng := sim.NewEngine()
	c := &cluster{eng: eng, policy: policy, scores: make([]candScore, n)}
	for i := 0; i < n; i++ {
		c.insts = append(c.insts, newInstance(i, DefaultGPU(), ContinuousOpts{}, eng, &c.pool, func(float64, Result) {}))
		c.breakers = append(c.breakers, resilient.NewBreaker(resilient.BreakerPolicy{FailureThreshold: 2}))
	}
	return c
}

// decisionTrace is a small routed workload with shared prefixes — the
// replay tests force every decision of it, so it stays deliberately
// smaller than prefixTrace.
func decisionTrace(t *testing.T, seed int64, n int) []workload.Request {
	t.Helper()
	cfg := workload.DefaultTrace(seed, n, 60)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// leastLoaded returns the instance with the smallest live outstanding
// token load, skipping exclude (ties break to the lowest index). The
// live router picks through the scored path (scoreInstances); this
// direct argmin is the reference the scored CacheAware fallback is
// differentially tested against.
func (c *cluster) leastLoaded(exclude int) int {
	best := -1
	for i, in := range c.insts {
		if i == exclude && len(c.insts) > 1 {
			continue
		}
		if best < 0 || in.queueLoad() < c.insts[best].queueLoad() {
			best = i
		}
	}
	return best
}

func TestScoredCacheAwareMatchesLeastLoaded(t *testing.T) {
	// The scored CacheAware fallback must agree with the historical
	// direct argmin (leastLoaded) on arbitrary load vectors.
	noAffinity := &workload.Request{ID: "r", PromptTokens: 100, OutputTokens: 10}
	loadSets := [][]int{
		{0, 0, 0, 0}, {5, 3, 9, 3}, {7, 7, 7, 7}, {1, 0, 0, 2}, {9, 8, 7, 6},
	}
	for _, loads := range loadSets {
		for exclude := -1; exclude < 4; exclude++ {
			c := newBareCluster(CacheAware, 4)
			for i, l := range loads {
				c.insts[i].load = l
			}
			want := c.leastLoaded(exclude)
			if got := c.route(0, noAffinity, exclude, false); got != want {
				t.Errorf("loads %v exclude %d: scored picked %d, leastLoaded %d",
					loads, exclude, got, want)
			}
		}
	}
}

func TestRankedInstanceOrder(t *testing.T) {
	c := newBareCluster(CacheAware, 4)
	for i, l := range []int{5, 3, 9, 3} {
		c.insts[i].load = l
	}
	r := &workload.Request{ID: "r", PromptTokens: 100, OutputTokens: 10}
	c.scoreInstances(0, r, -1)
	// Scores 5,3,9,3 → ranks: 1, 3 (tie to lower index), 0, 2.
	want := []int{1, 3, 0, 2}
	for k := 1; k <= 6; k++ {
		wi := want[len(want)-1] // ranks past n clamp to the worst
		if k <= len(want) {
			wi = want[k-1]
		}
		if got := c.rankedInstance(k); got != wi {
			t.Errorf("rank %d = %d, want %d", k, got, wi)
		}
	}
	if got := c.rankedInstance(0); got != want[0] {
		t.Errorf("rank 0 clamps to 1: got %d, want %d", got, want[0])
	}
}

func TestRouteZeroAllocWhenDecisionsOff(t *testing.T) {
	r := &workload.Request{ID: "r", PrefixID: "p1", PromptTokens: 100, OutputTokens: 10}
	for _, policy := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
		c := newBareCluster(policy, 4)
		allocs := testing.AllocsPerRun(200, func() {
			c.route(0, r, -1, false)
		})
		if allocs != 0 {
			t.Errorf("%v: route allocates %.1f/op with decisions off, want 0", policy, allocs)
		}
	}
}

func TestDecisionLogRecordsRoutedRun(t *testing.T) {
	gpu := DefaultGPU()
	reqs := decisionTrace(t, 91, 120)
	dl := obs.NewDecisionLog()
	rep, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Decisions: dl}, SevereFaultPlan(2303))
	if err != nil {
		t.Fatal(err)
	}
	decs := dl.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions recorded")
	}
	arrivals, reroutes := 0, 0
	for i, d := range decs {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
		if len(d.Candidates) != 4 {
			t.Fatalf("decision %d has %d candidates", d.Seq, len(d.Candidates))
		}
		// Unforced runs choose the argmin: rank 1 of the recorded vector.
		if want := d.Ranked()[0]; d.Chosen != want {
			t.Errorf("decision %d chose %d, rank-1 is %d", d.Seq, d.Chosen, want)
		}
		switch d.Kind {
		case obs.DecisionArrival:
			arrivals++
		case obs.DecisionReroute:
			reroutes++
			excluded := false
			for _, cand := range d.Candidates {
				if cand.Excluded {
					excluded = true
					if cand.Instance == d.Chosen {
						t.Errorf("decision %d rerouted back onto the excluded instance", d.Seq)
					}
				}
			}
			if !excluded {
				t.Errorf("reroute decision %d marks no excluded candidate", d.Seq)
			}
		default:
			t.Fatalf("decision %d has kind %q", d.Seq, d.Kind)
		}
	}
	served := 0
	for _, res := range rep.Results {
		if !res.Rejected {
			served++
		}
	}
	if arrivals < served {
		t.Errorf("%d arrival decisions < %d served requests", arrivals, served)
	}
	if reroutes != rep.Rerouted {
		t.Errorf("%d reroute decisions, report says %d", reroutes, rep.Rerouted)
	}

	// The identical run records the identical log.
	dl2 := obs.NewDecisionLog()
	if _, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Decisions: dl2}, SevereFaultPlan(2303)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decs, dl2.Decisions()) {
		t.Error("decision log differs across identical runs")
	}
}

func TestTracedDecisionRunPassesCheck(t *testing.T) {
	// With trace + decisions on, the obs invariant checker verifies the
	// decision log against the timeline (and the trace stays valid).
	gpu := DefaultGPU()
	reqs := decisionTrace(t, 91, 120)
	tr := obs.NewTracer()
	dl := obs.NewDecisionLog()
	if _, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Trace: tr, Decisions: dl}, SevereFaultPlan(2303)); err != nil {
		t.Fatal(err)
	}
	if tr.Decisions() != dl {
		t.Fatal("decision log was not attached to the tracer")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("decision-annotated trace fails invariants: %v", err)
	}
}

func TestReplayRank1Identity(t *testing.T) {
	// Forcing every decision to its own rank-1 (the recorded choice)
	// must reproduce the recorded run exactly — serially and at 8
	// workers — across fault plans. This is the contract that makes
	// rank-k deltas attributable to the forced choice alone.
	gpu := DefaultGPU()
	reqs := decisionTrace(t, 91, 100)
	plans := []struct {
		name string
		plan *FaultPlan
	}{{"medium", MediumFaultPlan(2303)}, {"severe", SevereFaultPlan(2303)}}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			dl := obs.NewDecisionLog()
			base, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
				ContinuousOpts{ChunkTokens: 256, Decisions: dl}, pc.plan)
			if err != nil {
				t.Fatal(err)
			}
			n := dl.Len()
			if n == 0 {
				t.Fatal("no decisions recorded")
			}
			for _, workers := range []int{1, 8} {
				reps := par.Map(n, workers, func(i int) *RoutedReport {
					rep, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
						ContinuousOpts{ChunkTokens: 256, Force: &ForcedChoice{Decision: uint64(i + 1), Rank: 1}},
						pc.plan)
					if err != nil {
						t.Error(err)
						return nil
					}
					return rep
				})
				for i, rep := range reps {
					if rep == nil {
						t.Fatal("missing forced report")
					}
					if !reflect.DeepEqual(base, rep) {
						t.Fatalf("workers=%d: forcing decision %d to rank 1 changed the run", workers, i+1)
					}
				}
			}
		})
	}
}

func TestForcedAlternativeChangesDelivery(t *testing.T) {
	// Forcing rank 2 must deliver the forced request to the runner-up
	// instance of the recorded decision.
	gpu := DefaultGPU()
	reqs := decisionTrace(t, 91, 100)
	dl := obs.NewDecisionLog()
	base, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Decisions: dl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := dl.At(1)
	if !ok || d.Kind != obs.DecisionArrival {
		t.Fatalf("decision 1 = %+v, %v", d, ok)
	}
	forced, err := RunRoutedFaults(gpu, reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Force: &ForcedChoice{Decision: 1, Rank: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Ranked()[1]
	if got := assignments(forced)[d.ReqID]; got != want {
		t.Errorf("forced req %s landed on %d, want runner-up %d (recorded %d)",
			d.ReqID, got, want, d.Chosen)
	}
	if base.TTFT.Mean() == 0 {
		t.Fatal("degenerate baseline")
	}
}

func TestReplayRegretWorkerInvariance(t *testing.T) {
	gpu := DefaultGPU()
	reqs := decisionTrace(t, 91, 80)
	run := func(dl *obs.DecisionLog, force *ForcedChoice) (*RoutedReport, error) {
		return RunRoutedFaults(gpu, reqs, 4, BreakerAware,
			ContinuousOpts{ChunkTokens: 256, Decisions: dl, Force: force}, MediumFaultPlan(2303))
	}
	cfg := ReplayConfig{MaxRank: 3, TTFTSLOms: 1500, TBTSLOms: 25, TopN: 5}
	cfg.Workers = 1
	serial, err := ReplayRegret(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := ReplayRegret(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("regret output differs between 1 and 8 workers")
	}
	reg := serial.Regret
	if reg == nil || reg.Decisions == 0 || reg.Replays != reg.Decisions*2 {
		t.Fatalf("regret summary malformed: %+v", reg)
	}
	if len(reg.Top) == 0 || len(reg.Top) > 5 {
		t.Fatalf("top list has %d entries", len(reg.Top))
	}
	for i := 1; i < len(reg.Top); i++ {
		a, b := reg.Top[i-1], reg.Top[i]
		if a.RegretMS < b.RegretMS ||
			(a.RegretMS == b.RegretMS && a.Decision.Seq > b.Decision.Seq) {
			t.Fatalf("top list not (regret desc, seq asc) at %d: %v then %v",
				i, fmt.Sprintf("%.3f/%d", a.RegretMS, a.Decision.Seq),
				fmt.Sprintf("%.3f/%d", b.RegretMS, b.Decision.Seq))
		}
	}
}
