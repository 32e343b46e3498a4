package serving

import (
	"fmt"
	"reflect"
	"testing"

	"dataai/internal/par"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// assignments extracts the per-request routing decision (request ID →
// serving instance) from a routed report, the routing trace the
// determinism contract is stated over.
func assignments(rep *RoutedReport) map[string]int {
	out := make(map[string]int, len(rep.Results))
	for _, r := range rep.Results {
		if !r.Rejected {
			out[r.Req.ID] = r.Instance
		}
	}
	return out
}

func TestRouterDeterministicAcrossInstanceAndWorkerCounts(t *testing.T) {
	// Same trace + same seed must yield byte-identical routing decisions
	// and Report fields on every run, for every instance count, and
	// regardless of how many workers run the simulation concurrently —
	// each run owns a private engine, so parallelism cannot leak in.
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 47)
	plans := []struct {
		name string
		plan *FaultPlan
	}{{"none", nil}, {"severe", SevereFaultPlan(2303)}}
	for _, n := range []int{1, 2, 4, 8} {
		for _, policy := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
			for _, pc := range plans {
				t.Run(fmt.Sprintf("n%d/%s/%s", n, policy, pc.name), func(t *testing.T) {
					const runs = 4
					reps := par.Map(runs, runs, func(int) *RoutedReport {
						rep, err := RunRoutedFaults(gpu, reqs, n, policy, ContinuousOpts{ChunkTokens: 256}, pc.plan)
						if err != nil {
							t.Error(err)
							return nil
						}
						return rep
					})
					if reps[0] == nil {
						t.Fatal("missing report")
					}
					for i := 1; i < runs; i++ {
						if reps[i] == nil {
							t.Fatal("missing report")
						}
						if !reflect.DeepEqual(assignments(reps[0]), assignments(reps[i])) {
							t.Fatal("routing decisions diverged across concurrent runs")
						}
						if !reflect.DeepEqual(reps[0], reps[i]) {
							t.Fatal("report fields diverged across concurrent runs")
						}
					}
				})
			}
		}
	}
}

func TestRouterTieBreakAtEqualScores(t *testing.T) {
	// With identical live state (fresh idle instances) every policy must
	// break ties deterministically toward the lowest eligible index.
	noAffinity := &workload.Request{ID: "r", PromptTokens: 100, OutputTokens: 10}
	cases := []struct {
		policy  RouterPolicy
		exclude int
		want    int
	}{
		{CacheAware, -1, 0},
		{CacheAware, 0, 1}, // exclusion shifts the tie to the next index
		{BreakerAware, -1, 0},
		{BreakerAware, 0, 1},
	}
	for _, tc := range cases {
		c := newBareCluster(tc.policy, 4)
		if g := c.route(0, noAffinity, tc.exclude, false); g != tc.want {
			t.Errorf("%v exclude=%d picked %d, want %d", tc.policy, tc.exclude, g, tc.want)
		}
	}
	// RoundRobin rotates regardless of state.
	c := newBareCluster(RoundRobin, 4)
	got := []int{}
	for i := 0; i < 5; i++ {
		got = append(got, c.route(0, noAffinity, -1, false))
	}
	if want := []int{0, 1, 2, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("round-robin order = %v, want %v", got, want)
	}
	// An open breaker pushes an otherwise-idle instance out of the
	// breaker-aware choice.
	c = newBareCluster(BreakerAware, 4)
	for i := 0; i < 2; i++ {
		c.breakers[0].OnFailure(0)
	}
	if g := c.route(0, noAffinity, -1, false); g != 1 {
		t.Errorf("breaker-aware with instance 0 open picked %d, want 1", g)
	}
}

func TestClusterPeakKVIsSimultaneousHighWater(t *testing.T) {
	// Regression for the historical RoutedReport.PeakKVBlocks bug: it
	// summed per-instance peaks from runs that never shared a clock, so
	// two instances busy at *different* times still counted as if their
	// peaks coincided. The shared tally must track true simultaneous
	// occupancy.
	gpu := DefaultGPU()
	tally := &clusterTally{}
	a := &talliedKV{KVManager: NewPagedKV(gpu), tally: tally}
	b := &talliedKV{KVManager: NewPagedKV(gpu), tally: tally}

	if !a.Alloc("s1", 1600) { // 100 blocks
		t.Fatal("alloc a")
	}
	a.Free("s1")
	if !b.Alloc("s2", 1600) { // 100 blocks, after a's released
		t.Fatal("alloc b")
	}
	b.Free("s2")
	sum := a.PeakBlocks() + b.PeakBlocks()
	if tally.peak != 100 || sum != 200 {
		t.Errorf("cluster peak = %d (per-instance sum %d), want 100 vs 200", tally.peak, sum)
	}

	// Overlapping usage does count together.
	a.Alloc("s3", 1600)
	b.Alloc("s4", 1600)
	if tally.peak != 200 {
		t.Errorf("overlapping peak = %d, want 200", tally.peak)
	}
}

func TestRoutedSingleInstanceMatchesContinuous(t *testing.T) {
	// A cluster of one with no prefixes in the trace is exactly
	// RunContinuous on the same engine semantics: reports must agree.
	gpu := DefaultGPU()
	reqs, err := workload.Generate(workload.DefaultTrace(53, 200, 40))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := RunRoutedFaults(gpu, reqs, 1, RoundRobin, ContinuousOpts{ChunkTokens: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if routed.MakespanMS != solo.MakespanMS || routed.OutputTokens != solo.OutputTokens ||
		routed.PeakKVBlocks != solo.PeakKVBlocks || routed.TTFT.Mean() != solo.TTFT.Mean() {
		t.Errorf("routed n=1 diverged from continuous: makespan %v vs %v, peak %d vs %d",
			routed.MakespanMS, solo.MakespanMS, routed.PeakKVBlocks, solo.PeakKVBlocks)
	}
}

func TestFaultPlanDrawsArePure(t *testing.T) {
	p1 := SevereFaultPlan(99)
	p2 := SevereFaultPlan(99)
	other := SevereFaultPlan(100)
	differs := false
	for inst := 0; inst < 4; inst++ {
		for w := 0; w < 32; w++ {
			if p1.crashAt(inst, w) != p2.crashAt(inst, w) {
				t.Fatal("crash draw not a pure function of (seed, instance, window)")
			}
			if p1.slowdownAt(inst, w) != p2.slowdownAt(inst, w) {
				t.Fatal("straggler draw not pure")
			}
			if p1.crashAt(inst, w) != other.crashAt(inst, w) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("different seeds never diverged in 128 windows")
	}
	if p1.transferFails("req-1", 0) != p2.transferFails("req-1", 0) {
		t.Error("transfer draw not pure")
	}
	// A nil plan injects nothing.
	var nilPlan *FaultPlan
	if nilPlan.crashAt(0, 0) || nilPlan.slowdownAt(0, 0) != 1 || nilPlan.transferFails("x", 0) {
		t.Error("nil plan injected a fault")
	}
}

func TestCrashDropsAndReroutesInFlightSequences(t *testing.T) {
	// Drive two instances by hand: crash one mid-decode and verify its
	// sequences are surrendered with their KV freed and cache savings
	// forgotten, then complete on the survivor with the emitted-token
	// count intact.
	gpu := DefaultGPU()
	eng := sim.NewEngine()
	var finished []Result
	pool := &seqPool{}
	a := newInstance(0, gpu, ContinuousOpts{}, eng, pool, func(_ float64, r Result) { finished = append(finished, r) })
	b := newInstance(1, gpu, ContinuousOpts{}, eng, pool, func(_ float64, r Result) { finished = append(finished, r) })
	// The pool zeroes a sequence when it finishes, so capture the
	// dropped state at drop time, not after the run.
	dropped, droppedGen := 0, 0
	a.onDrop = func(now float64, ss []*seqState) {
		for _, s := range ss {
			dropped++
			droppedGen = s.generated
			b.arrive(now, s) // immediate re-route for the test
		}
	}
	req := workload.Request{ID: "r1", PromptTokens: 200, OutputTokens: 20, ArrivalMS: 0}
	eng.At(0, func(now float64) { a.arrive(now, pool.get(&req)) })
	// Prefill takes 10ms; crash at 30ms lands mid-decode.
	eng.At(30, func(now float64) { a.crash(now) })
	eng.Run()

	if dropped != 1 {
		t.Fatalf("dropped %d sequences, want 1", dropped)
	}
	if droppedGen < 1 {
		t.Error("crash before any emitted token despite 30ms of decode")
	}
	if a.kv.UsedBlocks() != 0 {
		t.Errorf("crashed instance still holds %d KV blocks", a.kv.UsedBlocks())
	}
	if len(finished) != 1 {
		t.Fatalf("finished %d results, want 1", len(finished))
	}
	r := finished[0]
	if r.Instance != 1 {
		t.Errorf("completed on instance %d, want the re-route target 1", r.Instance)
	}
	if r.Rejected || r.FinishMS <= 30 {
		t.Errorf("suspicious completion: %+v", r)
	}
	if b.kv.UsedBlocks() != 0 || b.preemptions != 0 {
		t.Error("survivor did not settle cleanly")
	}
}

func TestPrefixInvalidateAndSessionDropGPU(t *testing.T) {
	pc := NewPrefixCache()
	if pc.SavedTokens("p1", 100) != 0 { // warms
		t.Fatal("first lookup should miss")
	}
	if pc.SavedTokens("p1", 100) != 100 {
		t.Fatal("second lookup should hit")
	}
	pc.Invalidate()
	if pc.SavedTokens("p1", 100) != 0 {
		t.Error("invalidate did not clear cached prefixes")
	}
	hits, misses := pc.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats after invalidate = %d/%d, want 1/2", hits, misses)
	}

	store, err := NewSessionStore(SessionStoreConfig{
		GPUCapacityTokens: 1000, CPUCapacityTokens: 1000,
		TransferMSPerToken: 0.01, PrefillTokensPerMS: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Store(0, "sess-gpu", 400)
	store.Store(0, "sess-demoted", 700) // evicts sess-gpu to CPU tier
	store.DropGPU()
	if got := store.Lookup(1, "sess-demoted", 700, 800); got != 0 {
		t.Errorf("GPU-tier entry survived the crash: saved %d", got)
	}
	if got := store.Lookup(1, "sess-gpu", 400, 500); got <= 0 {
		t.Errorf("CPU-tier entry should survive the crash, saved %d", got)
	}
}

func TestBreakerAwareWinsGoodputUnderSevereFaults(t *testing.T) {
	// The E23 acceptance property: under the severe fault plan the
	// breaker-aware policy routes around tripped instances and beats both
	// baselines on goodput.
	gpu := DefaultGPU()
	cfg := workload.DefaultTrace(2301, 600, 60)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := SevereFaultPlan(2303)
	goodput := map[RouterPolicy]float64{}
	for _, pol := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
		rep, err := RunRoutedFaults(gpu, reqs, 4, pol, ContinuousOpts{ChunkTokens: 256}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Crashes == 0 {
			t.Fatalf("%v: severe plan applied no crashes", pol)
		}
		goodput[pol] = rep.Goodput(1500, 25)
	}
	if goodput[BreakerAware] <= goodput[RoundRobin] || goodput[BreakerAware] <= goodput[CacheAware] {
		t.Errorf("breaker-aware goodput %.4f does not beat round-robin %.4f / cache-aware %.4f",
			goodput[BreakerAware], goodput[RoundRobin], goodput[CacheAware])
	}
}
