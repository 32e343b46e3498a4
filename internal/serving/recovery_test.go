package serving

import (
	"reflect"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// recoveryArms spans the policy space the drain invariant must hold
// over: nothing, checkpoints alone, checkpoints + migration, and the
// full stack with tiered prefix caches.
func recoveryArms() map[string]RecoveryConfig {
	return map[string]RecoveryConfig{
		"zero":       {},
		"ckpt":       {CkptEveryIters: 8},
		"ckpt+migr":  {CkptEveryIters: 8, Migrate: true},
		"full-stack": {CkptEveryIters: 4, Migrate: true, PrefixGPUTokens: 1024, PrefixCPUTokens: 8192},
	}
}

// queueLoadScan recomputes queueLoad from scratch. It is the
// reference the incremental load counter is tested against.
func (in *instance) queueLoadScan() int {
	load := 0
	for i := 0; i < in.waiting.Len(); i++ {
		load += seqLoad(in.waiting.At(i))
	}
	for i := 0; i < in.prefillQ.Len(); i++ {
		load += seqLoad(in.prefillQ.At(i))
	}
	for _, s := range in.running {
		load += seqLoad(s)
	}
	return load
}

// TestPostDrainInvariants is the leak check behind every fault plan:
// once a routed run returns, no instance may still hold KV blocks, the
// sequence pool must have every seqState back (outstanding == 0), and
// the checkpoint store must be empty — finished and drain-rejected
// sequences both drop their checkpoints.
func TestPostDrainInvariants(t *testing.T) {
	reqs := prefixTrace(t, 83)
	plans := map[string]*FaultPlan{
		"none":       nil,
		"severe":     SevereFaultPlan(2303),
		"correlated": CorrelatedFaultPlan(2303, 2),
		"cascade":    CascadeFaultPlan(2303, 2),
	}
	for planName, plan := range plans {
		for armName, rec := range recoveryArms() {
			rep, c, err := runRoutedCluster(DefaultGPU(), reqs, 4, BreakerAware,
				ContinuousOpts{ChunkTokens: 256}, plan, rec, AdmissionConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", planName, armName, err)
			}
			if len(rep.Results) != len(reqs) {
				t.Errorf("%s/%s: %d results for %d requests", planName, armName, len(rep.Results), len(reqs))
			}
			for i, in := range c.insts {
				if used := in.kv.UsedBlocks(); used != 0 {
					t.Errorf("%s/%s: instance %d still holds %d KV blocks after drain", planName, armName, i, used)
				}
				if in.load != 0 || in.queueLoadScan() != 0 {
					t.Errorf("%s/%s: instance %d load counter %d (scan %d) after drain, want 0",
						planName, armName, i, in.load, in.queueLoadScan())
				}
			}
			if c.pool.outstanding != 0 {
				t.Errorf("%s/%s: %d sequences never returned to the pool", planName, armName, c.pool.outstanding)
			}
			if len(c.rec.ctx) != 0 {
				t.Errorf("%s/%s: %d checkpoints leaked past drain", planName, armName, len(c.rec.ctx))
			}
		}
	}
}

// TestRecoveryZeroConfigMatchesFaults pins the compatibility seam:
// RunRoutedAdmission with a zero RecoveryConfig and a zero
// AdmissionConfig is the same simulation as RunRoutedFaults, report and
// all.
func TestRecoveryZeroConfigMatchesFaults(t *testing.T) {
	reqs := prefixTrace(t, 47)
	old, err := RunRoutedFaults(DefaultGPU(), reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, SevereFaultPlan(2303))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunRoutedAdmission(DefaultGPU(), reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, SevereFaultPlan(2303), RecoveryConfig{}, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, rec) {
		t.Error("zero RecoveryConfig changed the routed report")
	}
}

func TestCheckpointStore(t *testing.T) {
	r := newRecovery(RecoveryConfig{CkptEveryIters: 4})
	if got := r.covered("a"); got != 0 {
		t.Fatalf("covered on empty store = %d", got)
	}
	if delta := r.save("a", 100); delta != 100 {
		t.Fatalf("first save delta = %d, want 100", delta)
	}
	if delta := r.save("a", 140); delta != 40 {
		t.Fatalf("incremental save delta = %d, want 40", delta)
	}
	// A save that covers nothing new writes nothing.
	if delta := r.save("a", 140); delta != 0 {
		t.Fatalf("no-progress save delta = %d, want 0", delta)
	}
	if got := r.covered("a"); got != 140 {
		t.Fatalf("covered = %d, want 140", got)
	}
	if r.writes != 2 || r.writeTokens != 140 {
		t.Fatalf("writes=%d writeTokens=%d, want 2 and 140", r.writes, r.writeTokens)
	}
	r.drop("a")
	if got := r.covered("a"); got != 0 {
		t.Fatalf("covered after drop = %d", got)
	}
	// nil store (disabled policy) is inert and nil-safe.
	var nilRec *recovery
	if nilRec.covered("x") != 0 {
		t.Error("nil recovery claims coverage")
	}
	nilRec.drop("x")
}

// TestCheckpointCutsWastedRecompute is the tentpole's core mechanism in
// isolation: under an aggressive crash plan, checkpointed sequences
// resume from their saved context instead of re-prefilling from token
// zero, so the checkpointed run must waste strictly fewer recompute
// tokens and record resumes.
func TestCheckpointCutsWastedRecompute(t *testing.T) {
	reqs := prefixTrace(t, 47)
	plan := SevereFaultPlan(2303)
	base, err := RunRoutedAdmission(DefaultGPU(), reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, plan, RecoveryConfig{}, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := RunRoutedAdmission(DefaultGPU(), reqs, 4, BreakerAware,
		ContinuousOpts{ChunkTokens: 256}, plan, RecoveryConfig{CkptEveryIters: 8}, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Crashes == 0 || base.WastedRecomputeTokens == 0 {
		t.Fatalf("baseline injected nothing: %d crashes, %d wasted", base.Crashes, base.WastedRecomputeTokens)
	}
	if ck.CkptWrites == 0 || ck.ResumedFromCkpt == 0 {
		t.Fatalf("checkpoint arm inert: %d writes, %d resumes", ck.CkptWrites, ck.ResumedFromCkpt)
	}
	if ck.WastedRecomputeTokens >= base.WastedRecomputeTokens {
		t.Errorf("checkpointing did not cut wasted recompute: %d >= %d",
			ck.WastedRecomputeTokens, base.WastedRecomputeTokens)
	}
	if ck.RecoveryMS.Count() == 0 {
		t.Error("no recovery latency samples on a crashing checkpointed run")
	}
}

// TestMigrationTraceInvariants runs the full recovery stack traced and
// checks the migration story end to end: migrations happen, the
// "migrate" phase appears under request roots, the reroute_migration
// and resume_from_checkpoint counters agree with the report, and the
// trace passes obs.Check — including its migrated-session non-overlap
// invariant (a sequence is never resident in two places at once).
func TestMigrationTraceInvariants(t *testing.T) {
	cfg := workload.DefaultTrace(2401, 400, 70)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	rec := RecoveryConfig{CkptEveryIters: 8, Migrate: true, MigrateMinTokens: 64,
		PrefixGPUTokens: 1024, PrefixCPUTokens: 8192}
	rep, err := RunRoutedAdmission(DefaultGPU(), reqs, 8, BreakerAware,
		ContinuousOpts{ChunkTokens: 256, Trace: tr}, CascadeFaultPlan(2403, 4), rec, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 {
		t.Fatal("cascade plan produced no migrations")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("migration trace failed invariants: %v", err)
	}
	migratePhases := 0
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatRequest && s.Name == "migrate" {
			migratePhases++
		}
	}
	if migratePhases != rep.Migrations {
		t.Errorf("migrate phase spans = %d, report says %d migrations", migratePhases, rep.Migrations)
	}
	reg := tr.Registry()
	if got := reg.Lookup("router/reroute_migration").Final(); got != float64(rep.Migrations) {
		t.Errorf("router/reroute_migration counter = %v, report says %d", got, rep.Migrations)
	}
	if got := reg.Lookup("router/resume_from_checkpoint").Final(); got != float64(rep.ResumedFromCkpt) {
		t.Errorf("router/resume_from_checkpoint counter = %v, report says %d", got, rep.ResumedFromCkpt)
	}
	if rep.ResumedFromCkpt == 0 {
		t.Error("no checkpoint resumes under a crashing plan with migration on")
	}
}

// TestMigrationDeterministic: two identical full-stack runs must agree
// exactly — migration decisions read only logical-clock state.
func TestMigrationDeterministic(t *testing.T) {
	reqs := prefixTrace(t, 83)
	rec := RecoveryConfig{CkptEveryIters: 8, Migrate: true, PrefixGPUTokens: 1024, PrefixCPUTokens: 8192}
	run := func() *RoutedReport {
		rep, err := RunRoutedAdmission(DefaultGPU(), reqs, 4, BreakerAware,
			ContinuousOpts{ChunkTokens: 256}, CascadeFaultPlan(2303, 2), rec, AdmissionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("two identical migration runs diverged")
	}
}

func TestTieredPrefixCache(t *testing.T) {
	pc := NewTieredPrefixCache(PrefixCacheConfig{
		GPUCapacityTokens: 100, CPUCapacityTokens: 200,
		TransferMSPerToken: 0.01, PrefillTokensPerMS: 50,
	})
	// Warm three prefixes of 50 tokens; the third overflows the GPU tier
	// and demotes the coldest (the first).
	for _, id := range []string{"a", "b", "c"} {
		if got := pc.SavedTokens(id, 50); got != 0 {
			t.Fatalf("cold lookup %s saved %d", id, got)
		}
	}
	cpuHits, demotions := pc.TierStats()
	if demotions != 1 || cpuHits != 0 {
		t.Fatalf("after overflow: %d demotions %d cpu hits, want 1 and 0", demotions, cpuHits)
	}
	// Hitting the demoted prefix promotes it back, netting the transfer
	// cost: 50 - floor(50*0.01*50) = 50 - 25 = 25 tokens saved.
	if got := pc.SavedTokens("a", 50); got != 25 {
		t.Fatalf("promoted hit saved %d tokens, want 25", got)
	}
	cpuHits, _ = pc.TierStats()
	if cpuHits != 1 {
		t.Fatalf("cpu hits = %d, want 1", cpuHits)
	}
	// A GPU hit is free of transfer cost.
	if got := pc.SavedTokens("a", 50); got != 50 {
		t.Fatalf("gpu hit saved %d tokens, want 50", got)
	}
	// Invalidate wipes the GPU tier only: the host tier survives the
	// crash, so the demoted entry is still promotable afterwards.
	pc.Invalidate()
	if got := pc.SavedTokens("a", 50); got != 0 {
		t.Fatalf("post-crash gpu lookup saved %d, want 0 (tier wiped)", got)
	}
	pc2 := NewTieredPrefixCache(PrefixCacheConfig{
		GPUCapacityTokens: 100, CPUCapacityTokens: 200,
		TransferMSPerToken: 0.01, PrefillTokensPerMS: 50,
	})
	pc2.SavedTokens("x", 80)
	pc2.SavedTokens("y", 80) // x demoted to CPU
	pc2.Invalidate()         // y (GPU) gone, x (CPU) survives
	if got := pc2.SavedTokens("x", 80); got <= 0 {
		t.Errorf("CPU tier did not survive Invalidate: saved %d", got)
	}
	// The unbounded legacy cache never demotes.
	legacy := NewPrefixCache()
	for i := 0; i < 50; i++ {
		legacy.SavedTokens(string(rune('a'+i%26))+"x", 1000)
	}
	if _, d := legacy.TierStats(); d != 0 {
		t.Errorf("unbounded cache demoted %d prefixes", d)
	}
}
