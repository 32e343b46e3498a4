package serving

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dataai/internal/workload"
)

func prefixTrace(t *testing.T, seed int64) []workload.Request {
	t.Helper()
	cfg := workload.DefaultTrace(seed, 300, 50)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 512
	cfg.SharedPrefixProb = 0.8
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestRunRoutedValidation(t *testing.T) {
	if _, err := RunRoutedFaults(DefaultGPU(), nil, 0, RoundRobin, ContinuousOpts{}, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestCacheAwareRoutingBeatsRoundRobinOnPrefixes(t *testing.T) {
	// The Mooncake claim: KV-centric routing concentrates shared-prefix
	// traffic, so each prefix is computed once per cluster instead of
	// once per instance.
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 41)
	rr, err := RunRoutedFaults(gpu, reqs, 4, RoundRobin, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := RunRoutedFaults(gpu, reqs, 4, CacheAware, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ca.PrefixMisses >= rr.PrefixMisses {
		t.Errorf("cache-aware misses %d >= round-robin %d", ca.PrefixMisses, rr.PrefixMisses)
	}
	if ca.PrefillTokens >= rr.PrefillTokens {
		t.Errorf("cache-aware prefill %d >= round-robin %d", ca.PrefillTokens, rr.PrefillTokens)
	}
	if len(ca.Results) != len(reqs) || len(rr.Results) != len(reqs) {
		t.Fatal("results lost in routing")
	}
	// Prefix misses under cache-aware routing: at most one per prefix.
	if ca.PrefixMisses > 8 {
		t.Errorf("cache-aware misses %d > 8 prefixes", ca.PrefixMisses)
	}
}

func TestRoutedSessionsStayTogether(t *testing.T) {
	gpu := DefaultGPU()
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(43))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunRoutedFaults(gpu, reqs, 4, RoundRobin, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := RunRoutedFaults(gpu, reqs, 4, CacheAware, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same-session turns hitting one instance means its session store
	// serves them: less prefill than when turns scatter.
	if ca.PrefillTokens >= rr.PrefillTokens {
		t.Errorf("cache-aware prefill %d >= round-robin %d", ca.PrefillTokens, rr.PrefillTokens)
	}
}

func TestRoutedDeterministic(t *testing.T) {
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 47)
	a, err := RunRoutedFaults(gpu, reqs, 3, CacheAware, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRoutedFaults(gpu, reqs, 3, CacheAware, ContinuousOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanMS != b.MakespanMS || a.PrefixHits != b.PrefixHits {
		t.Error("routed run not deterministic")
	}
}

func TestRouterPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || CacheAware.String() != "cache-aware" {
		t.Error("policy names")
	}
}

// TestResultsPointIntoTheTrace pins Result.Req's aliasing contract: a
// trace already in arrival order is used in place, so every result
// points at an element of the caller's slice; an out-of-order trace is
// served from a private sorted copy, with the same outcomes.
func TestResultsPointIntoTheTrace(t *testing.T) {
	reqs, err := workload.Generate(workload.DefaultTrace(61, 300, 40))
	if err != nil {
		t.Fatal(err)
	}
	plan := SevereFaultPlan(7)
	rep, err := RunRoutedFaults(DefaultGPU(), reqs, 4, BreakerAware, ContinuousOpts{ChunkTokens: 128}, plan)
	if err != nil {
		t.Fatal(err)
	}
	owned := func(r *workload.Request, trace []workload.Request) bool {
		for i := range trace {
			if r == &trace[i] {
				return true
			}
		}
		return false
	}
	for i := range rep.Results {
		if !owned(rep.Results[i].Req, reqs) {
			t.Fatalf("result %d (%s) does not point into the caller's sorted trace", i, rep.Results[i].Req.ID)
		}
	}

	shuffled := append([]workload.Request(nil), reqs...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	before := append([]workload.Request(nil), shuffled...)
	again, err := RunRoutedFaults(DefaultGPU(), shuffled, 4, BreakerAware, ContinuousOpts{ChunkTokens: 128}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shuffled, before) {
		t.Fatal("the run reordered the caller's unsorted trace")
	}
	if !reflect.DeepEqual(rep.Report, again.Report) {
		t.Fatal("an unsorted copy of the trace served differently")
	}
	for i := range again.Results {
		if owned(again.Results[i].Req, shuffled) {
			t.Fatalf("result %d points into the caller's unsorted trace, not the run's sorted copy", i)
		}
	}
}
