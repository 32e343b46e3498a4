package serving

import (
	"reflect"
	"runtime"
	"testing"

	"dataai/internal/par"
	"dataai/internal/workload"
)

// TestClusterScaleMillionRequests is the ROADMAP's north-star workload
// made an ordinary test: an E23-shaped run (shared prefixes, severe
// fault plan, breaker-aware routing, chunked prefill) at 100 instances
// and 10^6 requests on one shared engine clock. It exists to keep the
// engine fast enough that cluster experiments of this size stay cheap —
// the calendar queue and the pooled serving path are what make it
// complete in seconds (BENCH_sim.json records the wall time). -short
// and race runs scale the trace down 10x; the scheduling code exercised
// is identical.
func TestClusterScaleMillionRequests(t *testing.T) {
	const instances = 100
	n, rate := 1_000_000, 1500.0 // 15 req/s per instance, E23's density
	if testing.Short() || raceEnabled {
		n, rate = 100_000, 1500.0
	}
	cfg := workload.DefaultTrace(2301, n, rate)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunRoutedFaults(DefaultGPU(), reqs, instances, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, SevereFaultPlan(2303))
	if err != nil {
		t.Fatal(err)
	}
	// Every request must resolve exactly once: finished or rejected.
	if got := len(rep.Results); got != n {
		t.Fatalf("resolved %d results, want %d", got, n)
	}
	finished := n - rep.Rejected
	if finished <= n/2 {
		t.Fatalf("only %d/%d requests finished; the cluster wedged", finished, n)
	}
	if rep.Crashes == 0 || rep.Rerouted == 0 {
		t.Errorf("severe plan injected no faults (crashes=%d rerouted=%d)", rep.Crashes, rep.Rerouted)
	}
	if rep.MakespanMS <= 0 || rep.TTFT.P50() <= 0 {
		t.Errorf("degenerate report: makespan=%v p50TTFT=%v", rep.MakespanMS, rep.TTFT.P50())
	}
	t.Logf("%d reqs / %d instances: finished=%d rejected=%d crashes=%d rerouted=%d makespan=%.0fms",
		n, instances, finished, rep.Rejected, rep.Crashes, rep.Rerouted, rep.MakespanMS)
}

// TestMigrationUnderFaultsScale is the recovery stack's scale +
// determinism gate in one: 100 instances in racks of 10 under the
// cascading correlated fault plan with checkpoints, live migration, and
// tiered prefix caches all on. One serial run is compared DeepEqual
// against replicas raced on 8 workers — migration scans, checkpoint
// writes, and correlated crash draws are all pure functions of the
// logical clock, so concurrent replicas must agree bit for bit. -short
// and race runs scale the trace down 10x like the million-request test.
func TestMigrationUnderFaultsScale(t *testing.T) {
	const instances = 100
	n, rate := 1_000_000, 1500.0
	if testing.Short() || raceEnabled {
		n, rate = 100_000, 1500.0
	}
	cfg := workload.DefaultTrace(2301, n, rate)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecoveryConfig{
		CkptEveryIters: 8, Migrate: true,
		PrefixGPUTokens: 2048, PrefixCPUTokens: 16384,
	}
	run := func() *RoutedReport {
		rep, err := RunRoutedAdmission(DefaultGPU(), reqs, instances, BreakerAware,
			ContinuousOpts{ChunkTokens: 256}, CascadeFaultPlan(2403, 10), rec, AdmissionConfig{})
		if err != nil {
			t.Error(err)
			return nil
		}
		return rep
	}
	serial := run()
	if serial == nil {
		t.Fatal("missing serial report")
	}
	if got := len(serial.Results); got != n {
		t.Fatalf("resolved %d results, want %d", got, n)
	}
	if serial.Crashes == 0 || serial.ResumedFromCkpt == 0 || serial.Migrations == 0 {
		t.Fatalf("recovery stack inert at scale: crashes=%d resumes=%d migrations=%d",
			serial.Crashes, serial.ResumedFromCkpt, serial.Migrations)
	}
	if finished := n - serial.Rejected; finished <= n/2 {
		t.Fatalf("only %d/%d requests finished; the cluster wedged", finished, n)
	}
	replicas := par.Map(8, 8, func(int) *RoutedReport { return run() })
	for i, rep := range replicas {
		if rep == nil {
			t.Fatal("missing parallel report")
		}
		if !reflect.DeepEqual(serial, rep) {
			t.Fatalf("parallel replica %d diverged from the serial run", i)
		}
	}
	t.Logf("%d reqs / %d instances: crashes=%d resumes=%d migrations=%d wasted=%d makespan=%.0fms",
		n, instances, serial.Crashes, serial.ResumedFromCkpt, serial.Migrations,
		serial.WastedRecomputeTokens, serial.MakespanMS)
}

// TestRoutedBytesPerRequest bounds a routed run's memory per request on
// an E23-shaped trace (shared prefixes, severe faults, breaker-aware
// routing over 100 instances) of 10^5 requests, with two counters from
// runtime.MemStats:
//
//   - allocated: the TotalAlloc delta of the run, per request — every
//     byte the run asks the allocator for, the GC's workload;
//   - retained: the live heap the run leaves behind with its report
//     held and the trace (allocated before the first reading) excluded,
//     per request — what a caller pays to keep a report.
//
// A report holds one Result per request, which points at its request
// instead of copying it, and the TTFT/TBT summaries keep their samples;
// the trace streams into the engine one arrival at a time. The bounds
// sit about 1.5x above what this code measures (see BENCH_mem.json), so
// a change that copies requests into results or queues the whole trace
// again fails here.
func TestRoutedBytesPerRequest(t *testing.T) {
	const (
		n                  = 100_000
		maxAllocatedPerReq = 300 // bytes
		maxRetainedPerReq  = 110 // bytes
	)
	cfg := workload.DefaultTrace(2301, n, 1500)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := RunRoutedFaults(DefaultGPU(), reqs, 100, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, SevereFaultPlan(2303))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(rep.Results) != n {
		t.Fatalf("resolved %d results, want %d", len(rep.Results), n)
	}
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / n
	retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(rep)
	runtime.KeepAlive(reqs)
	t.Logf("%d requests: allocated %.0f B/request, retained %.1f B/request (mallocs %.2f/request)",
		n, allocated, retained, float64(after.Mallocs-before.Mallocs)/n)
	if allocated > maxAllocatedPerReq {
		t.Errorf("allocated %.0f B/request, bound %d", allocated, maxAllocatedPerReq)
	}
	if retained > maxRetainedPerReq {
		t.Errorf("retained %.1f B/request with the report held, bound %d", retained, maxRetainedPerReq)
	}
}
