package serving

import (
	"errors"
	"fmt"
	"testing"

	"dataai/internal/workload"
)

func trace(t testing.TB, seed int64, n int, rate float64) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.DefaultTrace(seed, n, rate))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestGPUConfigValidate(t *testing.T) {
	if err := (GPUConfig{}).Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("zero config err = %v", err)
	}
	if err := DefaultGPU().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func checkSane(t *testing.T, rep *Report, total int) {
	t.Helper()
	if len(rep.Results) != total {
		t.Fatalf("results = %d, want %d", len(rep.Results), total)
	}
	for _, r := range rep.Results {
		if r.Rejected {
			continue
		}
		if r.TTFTms < 0 {
			t.Fatalf("negative TTFT for %s: %v", r.Req.ID, r.TTFTms)
		}
		if r.TBTms < 0 {
			t.Fatalf("negative TBT for %s", r.Req.ID)
		}
		if r.FinishMS < r.Req.ArrivalMS {
			t.Fatalf("%s finished before arrival", r.Req.ID)
		}
	}
	if rep.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunStaticBasics(t *testing.T) {
	reqs := trace(t, 1, 100, 20)
	rep, err := RunStatic(DefaultGPU(), reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, rep, 100)
	if rep.PeakKVBlocks == 0 {
		t.Error("no KV usage recorded")
	}
}

func TestRunStaticValidation(t *testing.T) {
	if _, err := RunStatic(DefaultGPU(), nil, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestRunContinuousBasics(t *testing.T) {
	reqs := trace(t, 2, 100, 20)
	rep, err := RunContinuous(DefaultGPU(), reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, rep, 100)
	if rep.Rejected != 0 {
		t.Errorf("rejected = %d", rep.Rejected)
	}
}

func TestContinuousBeatsStaticThroughput(t *testing.T) {
	// E11's first claim (Orca): continuous batching improves throughput
	// and completion latency over static batching.
	gpu := DefaultGPU()
	reqs := trace(t, 3, 300, 40)
	static, err := RunStatic(gpu, reqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if cont.Throughput() <= static.Throughput() {
		t.Errorf("continuous throughput %v <= static %v", cont.Throughput(), static.Throughput())
	}
	if cont.MakespanMS >= static.MakespanMS {
		t.Errorf("continuous makespan %v >= static %v", cont.MakespanMS, static.MakespanMS)
	}
}

func TestChunkedPrefillImprovesTBT(t *testing.T) {
	// E11's second claim (Sarathi): batching a prefill with decode stalls
	// the decodes; chunking the prefill tames the TBT tail at a small
	// TTFT cost.
	gpu := DefaultGPU()
	reqs := trace(t, 4, 300, 40)
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 128})
	if err != nil {
		t.Fatal(err)
	}
	if chunked.TBT.P95() >= plain.TBT.P95() {
		t.Errorf("chunked P95 TBT %v >= plain %v", chunked.TBT.P95(), plain.TBT.P95())
	}
}

func TestPagedAdmitsMoreThanContiguous(t *testing.T) {
	// E13 (vLLM): preallocation wastes memory; paging raises achievable
	// concurrency for short sequences.
	gpu := DefaultGPU()
	cont := MaxConcurrent(NewContiguousKV(gpu), 256, 64)
	paged := MaxConcurrent(NewPagedKV(gpu), 256, 64)
	if paged <= cont {
		t.Errorf("paged concurrency %d <= contiguous %d", paged, cont)
	}
	if cont != gpu.KVBlocks/((gpu.MaxSeqLen+gpu.BlockSize-1)/gpu.BlockSize) {
		t.Errorf("contiguous concurrency %d formula mismatch", cont)
	}
}

func TestPagedThroughputBeatsContiguous(t *testing.T) {
	gpu := DefaultGPU()
	gpu.KVBlocks = 512 // tight cache so the allocator is the bottleneck
	reqs := trace(t, 5, 200, 50)
	contig, err := RunContinuous(gpu, reqs, ContinuousOpts{KV: NewContiguousKV(gpu)})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := RunContinuous(gpu, reqs, ContinuousOpts{KV: NewPagedKV(gpu)})
	if err != nil {
		t.Fatal(err)
	}
	if paged.MakespanMS >= contig.MakespanMS {
		t.Errorf("paged makespan %v >= contiguous %v", paged.MakespanMS, contig.MakespanMS)
	}
}

func TestKVManagerAccounting(t *testing.T) {
	gpu := DefaultGPU()
	for _, m := range []KVManager{NewContiguousKV(gpu), NewPagedKV(gpu)} {
		if !m.Alloc("a", 100) {
			t.Fatalf("%s: first alloc failed", m.Name())
		}
		if m.Alloc("a", 100) {
			t.Fatalf("%s: duplicate alloc allowed", m.Name())
		}
		used := m.UsedBlocks()
		if used <= 0 || used > m.Capacity() {
			t.Fatalf("%s: used %d", m.Name(), used)
		}
		if !m.Extend("a", 200) {
			t.Fatalf("%s: extend failed", m.Name())
		}
		m.Free("a")
		if m.UsedBlocks() != 0 {
			t.Fatalf("%s: leak after free", m.Name())
		}
		if m.PeakBlocks() < used {
			t.Fatalf("%s: peak below used", m.Name())
		}
		if m.Alloc("big", gpu.MaxSeqLen+1) {
			t.Fatalf("%s: oversized alloc allowed", m.Name())
		}
	}
}

func TestPagedKVExactBlocks(t *testing.T) {
	gpu := DefaultGPU() // BlockSize 16
	p := NewPagedKV(gpu)
	p.Alloc("a", 17) // 2 blocks
	if p.UsedBlocks() != 2 {
		t.Errorf("used = %d, want 2", p.UsedBlocks())
	}
	p.Extend("a", 32) // still 2 blocks
	if p.UsedBlocks() != 2 {
		t.Errorf("used after extend = %d, want 2", p.UsedBlocks())
	}
	p.Extend("a", 33) // 3 blocks
	if p.UsedBlocks() != 3 {
		t.Errorf("used after extend = %d, want 3", p.UsedBlocks())
	}
}

func TestPagedKVExhaustion(t *testing.T) {
	gpu := DefaultGPU()
	gpu.KVBlocks = 4
	p := NewPagedKV(gpu)
	if !p.Alloc("a", 64) { // 4 blocks
		t.Fatal("alloc failed")
	}
	if p.Alloc("b", 1) {
		t.Error("alloc beyond capacity allowed")
	}
	if p.Extend("a", 65) {
		t.Error("extend beyond capacity allowed")
	}
}

func TestPrefixCacheCutsTTFT(t *testing.T) {
	// E13 (Prompt Cache / TensorRT-LLM): reusing shared-prefix KV skips
	// recomputation and cuts TTFT.
	gpu := DefaultGPU()
	cfg := workload.DefaultTrace(6, 200, 25)
	cfg.SharedPrefixes = 2
	cfg.SharedPrefixTokens = 512
	cfg.SharedPrefixProb = 0.8
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPrefixCache()
	cached, err := RunContinuous(gpu, reqs, ContinuousOpts{Prefix: pc})
	if err != nil {
		t.Fatal(err)
	}
	if cached.TTFT.Mean() >= plain.TTFT.Mean() {
		t.Errorf("prefix-cached mean TTFT %v >= plain %v", cached.TTFT.Mean(), plain.TTFT.Mean())
	}
	if cached.PrefillTokens >= plain.PrefillTokens {
		t.Errorf("prefix cache saved no prefill: %d vs %d", cached.PrefillTokens, plain.PrefillTokens)
	}
	hits, misses := pc.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("prefix cache stats %d/%d", hits, misses)
	}
}

func TestDisaggregatedImprovesTBTUnderLoad(t *testing.T) {
	// E12 (DistServe/Splitwise): same GPU budget, decodes isolated from
	// prefill interference.
	// The DistServe regime is *high load*: under light load prefill
	// interference is rare and the architectures tie; as load grows,
	// colocated decodes stall behind prefills and goodput separates.
	gpu := DefaultGPU()
	reqs := trace(t, 7, 400, 100)
	colo, err := RunColocated(gpu, reqs, 4, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	disagg, err := RunDisaggregated(gpu, reqs, DisaggOpts{
		PrefillGPUs: 2, DecodeGPUs: 2, TransferMSPerToken: 0.005, OverlapTransfer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if disagg.TBT.P95() >= colo.TBT.P95() {
		t.Errorf("disaggregated P95 TBT %v >= colocated %v", disagg.TBT.P95(), colo.TBT.P95())
	}
	// Goodput under joint SLOs should favor disaggregation at high load.
	gColo := colo.Goodput(1000, 12)
	gDisagg := disagg.Goodput(1000, 12)
	if gDisagg <= gColo {
		t.Errorf("disaggregated goodput %v <= colocated %v", gDisagg, gColo)
	}
}

func TestDisaggValidation(t *testing.T) {
	if _, err := RunDisaggregated(DefaultGPU(), nil, DisaggOpts{}); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
	if _, err := RunColocated(DefaultGPU(), nil, 0, ContinuousOpts{}); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestTransferCostMattersWithoutOverlap(t *testing.T) {
	gpu := DefaultGPU()
	reqs := trace(t, 8, 150, 30)
	overlapped, err := RunDisaggregated(gpu, reqs, DisaggOpts{
		PrefillGPUs: 1, DecodeGPUs: 1, TransferMSPerToken: 0.05, OverlapTransfer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := RunDisaggregated(gpu, reqs, DisaggOpts{
		PrefillGPUs: 1, DecodeGPUs: 1, TransferMSPerToken: 0.05, OverlapTransfer: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocking.TBT.Mean() <= overlapped.TBT.Mean() {
		t.Errorf("blocking transfer TBT %v <= overlapped %v", blocking.TBT.Mean(), overlapped.TBT.Mean())
	}
}

func TestSessionStoreHitsCutPrefill(t *testing.T) {
	// E14: a conversation cache turns history re-prefill into reuse.
	gpu := DefaultGPU()
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(9))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewSessionStore(SessionStoreConfig{
		GPUCapacityTokens:  1 << 20, // effectively unbounded
		Policy:             LRU,
		PrefillTokensPerMS: gpu.PrefillTokensPerMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store})
	if err != nil {
		t.Fatal(err)
	}
	if cached.PrefillTokens >= plain.PrefillTokens {
		t.Errorf("session cache saved nothing: %d vs %d", cached.PrefillTokens, plain.PrefillTokens)
	}
	if store.HitRate() <= 0.3 {
		t.Errorf("hit rate %v too low", store.HitRate())
	}
	if cached.TTFT.Mean() >= plain.TTFT.Mean() {
		t.Errorf("cached mean TTFT %v >= plain %v", cached.TTFT.Mean(), plain.TTFT.Mean())
	}
}

func TestEvictionPolicyHitRates(t *testing.T) {
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(10))
	if err != nil {
		t.Fatal(err)
	}
	gpu := DefaultGPU()
	rates := map[EvictionPolicy]float64{}
	for _, pol := range []EvictionPolicy{LRU, LFU, TreeLRU} {
		store, err := NewSessionStore(SessionStoreConfig{
			GPUCapacityTokens:  2000, // tight: forces eviction pressure
			Policy:             pol,
			PrefillTokensPerMS: gpu.PrefillTokensPerMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store}); err != nil {
			t.Fatal(err)
		}
		rates[pol] = store.HitRate()
		if store.Evictions == 0 {
			t.Errorf("%s: no evictions under pressure", pol)
		}
	}
	for pol, r := range rates {
		if r <= 0 || r >= 1 {
			t.Errorf("%s hit rate %v out of range", pol, r)
		}
	}
}

func TestHierarchicalStoreBeatsSingleTier(t *testing.T) {
	// AttentionStore claim: a host-memory tier retains what the GPU tier
	// evicts; overlapped transmission keeps the fetch cheap.
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(11))
	if err != nil {
		t.Fatal(err)
	}
	gpu := DefaultGPU()
	run := func(cpuTokens int, overlap bool) (*SessionStore, *Report) {
		store, err := NewSessionStore(SessionStoreConfig{
			GPUCapacityTokens:  2000,
			CPUCapacityTokens:  cpuTokens,
			Policy:             LRU,
			TransferMSPerToken: 0.02,
			OverlapTransfer:    overlap,
			PrefillTokensPerMS: gpu.PrefillTokensPerMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store})
		if err != nil {
			t.Fatal(err)
		}
		return store, rep
	}
	single, _ := run(0, false)
	tiered, _ := run(1<<20, true)
	if tiered.SavedTokens <= single.SavedTokens {
		t.Errorf("tiered saved %d <= single %d", tiered.SavedTokens, single.SavedTokens)
	}
	if tiered.Demotions == 0 {
		t.Error("no demotions to CPU tier")
	}
	// Overlap beats blocking transfer on net savings.
	blocked, _ := run(1<<20, false)
	if tiered.SavedTokens < blocked.SavedTokens {
		t.Errorf("overlapped saved %d < blocking %d", tiered.SavedTokens, blocked.SavedTokens)
	}
}

func TestSessionStoreValidation(t *testing.T) {
	if _, err := NewSessionStore(SessionStoreConfig{}); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeCostKVSpeedup(t *testing.T) {
	// E15: KV caching avoids recomputing K/V per step; the speedup grows
	// with generation length.
	m := DefaultDecodeCost()
	s64, err := m.Speedup(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	s256, err := m.Speedup(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s64 <= 1 {
		t.Errorf("speedup %v <= 1", s64)
	}
	if s256 <= s64 {
		t.Errorf("speedup should grow with length: %v vs %v", s256, s64)
	}
	if _, err := m.GenerateLatencyMS(-1, 5, true); err == nil {
		t.Error("negative prompt accepted")
	}
	if _, err := m.GenerateLatencyMS(5, 0, true); err == nil {
		t.Error("zero output accepted")
	}
}

func TestGoodputAndSummaries(t *testing.T) {
	rep := buildReport([]Result{
		{Req: &workload.Request{ID: "a", OutputTokens: 10}, TTFTms: 50, TBTms: 5, FinishMS: 100},
		{Req: &workload.Request{ID: "b", OutputTokens: 10}, TTFTms: 500, TBTms: 50, FinishMS: 600},
		{Req: &workload.Request{ID: "c"}, Rejected: true},
	})
	if g := rep.Goodput(100, 10); g != 1.0/3 {
		t.Errorf("goodput = %v, want 1/3", g)
	}
	if rep.Rejected != 1 {
		t.Errorf("rejected = %d", rep.Rejected)
	}
	var empty Report
	if empty.Goodput(1, 1) != 0 || empty.Throughput() != 0 {
		t.Error("empty report not zeroed")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	gpu := DefaultGPU()
	reqs := trace(t, 12, 150, 30)
	a, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanMS != b.MakespanMS || a.TTFT.Mean() != b.TTFT.Mean() {
		t.Error("simulation not deterministic")
	}
}

func BenchmarkRunContinuous(b *testing.B) {
	gpu := DefaultGPU()
	reqs := trace(b, 1, 500, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 128}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunDisaggregated(b *testing.B) {
	gpu := DefaultGPU()
	reqs := trace(b, 1, 500, 50)
	opts := DisaggOpts{PrefillGPUs: 2, DecodeGPUs: 2, TransferMSPerToken: 0.005, OverlapTransfer: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDisaggregated(gpu, reqs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleReport_Goodput() {
	rep := buildReport([]Result{
		{Req: &workload.Request{ID: "a", OutputTokens: 8}, TTFTms: 80, TBTms: 8, FinishMS: 150},
		{Req: &workload.Request{ID: "b", OutputTokens: 8}, TTFTms: 900, TBTms: 9, FinishMS: 1000},
	})
	fmt.Printf("%.1f\n", rep.Goodput(200, 10))
	// Output: 0.5
}
