// Package serving is a discrete-event simulator of LLM inference serving
// (§2.3.2 "LLM Inference"). It reproduces the systems the paper surveys:
//
//   - Batching: static batches vs. iteration-level continuous batching
//     (Orca [66]) vs. chunked prefill (Sarathi-Serve [4]) — experiment E11.
//   - Prefill/decode disaggregation on separate GPU pools
//     (DistServe [69], Splitwise [44]) — experiment E12.
//   - KV cache management: contiguous preallocation vs. vLLM-style paged
//     blocks [28], and shared-prefix reuse (Prompt Cache [22],
//     TensorRT-LLM [3]) — experiment E13.
//   - KV cache stores for multi-turn reuse with LRU/LFU/all-or-nothing/
//     dependency-tree eviction and an AttentionStore-style [19]
//     hierarchical GPU/CPU store with overlapped transmission — E14.
//   - The KV cache mechanism itself vs. recomputing K/V every step — E15.
//
// Time is a logical millisecond clock; nothing sleeps. The GPU cost model
// is deliberately simple — prefill is compute-bound and processes tokens
// at a fixed rate, a decode iteration costs a base latency plus a
// per-sequence term — because the surveyed results are consequences of
// *scheduling structure*, not of any particular kernel's speed.
package serving

import (
	"errors"
	"fmt"
	"sort"

	"dataai/internal/metrics"
	"dataai/internal/workload"
)

// Errors callers branch on.
var (
	// ErrConfig indicates an invalid simulator configuration.
	ErrConfig = errors.New("serving: invalid configuration")
	// ErrKVFull indicates a KV allocation beyond capacity.
	ErrKVFull = errors.New("serving: kv cache full")
)

// GPUConfig is the per-device cost model.
type GPUConfig struct {
	// PrefillTokensPerMS is prefill throughput (compute-bound).
	PrefillTokensPerMS float64
	// DecodeBaseMS is the fixed cost of one decode iteration.
	DecodeBaseMS float64
	// DecodeMSPerSeq is the marginal cost per batched sequence.
	DecodeMSPerSeq float64
	// KVBlocks and BlockSize size the KV cache: KVBlocks blocks of
	// BlockSize tokens.
	KVBlocks  int
	BlockSize int
	// MaxSeqLen bounds prompt+output; contiguous allocation reserves
	// this much per sequence.
	MaxSeqLen int
	// MaxBatch caps concurrent decoding sequences (0 = unlimited).
	MaxBatch int
}

// DefaultGPU returns an A100-flavoured cost model.
func DefaultGPU() GPUConfig {
	return GPUConfig{
		PrefillTokensPerMS: 20,
		DecodeBaseMS:       4,
		DecodeMSPerSeq:     0.25,
		KVBlocks:           2048,
		BlockSize:          16,
		MaxSeqLen:          4096,
		MaxBatch:           64,
	}
}

// Validate checks the configuration.
func (g GPUConfig) Validate() error {
	if g.PrefillTokensPerMS <= 0 || g.DecodeBaseMS <= 0 || g.DecodeMSPerSeq < 0 ||
		g.KVBlocks <= 0 || g.BlockSize <= 0 || g.MaxSeqLen <= 0 {
		return fmt.Errorf("%w: %+v", ErrConfig, g)
	}
	return nil
}

// prefillMS is the time to prefill n tokens.
func (g GPUConfig) prefillMS(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / g.PrefillTokensPerMS
}

// decodeIterMS is the time of one decode iteration over batch sequences.
func (g GPUConfig) decodeIterMS(batch int) float64 {
	if batch <= 0 {
		return 0
	}
	return g.DecodeBaseMS + g.DecodeMSPerSeq*float64(batch)
}

// Result records one request's serving outcome.
type Result struct {
	// Req points at the request this result is for. It aliases the
	// caller's trace (or, when the trace was not in arrival order, the
	// run's private sorted copy of it), so a report costs no per-request
	// copy of the request; mutating the trace after the run changes
	// what the report's results read.
	Req *workload.Request
	// TTFTms is time from arrival to the first output token.
	TTFTms float64
	// TBTms is the mean time between subsequent output tokens.
	TBTms float64
	// FinishMS is the completion time on the logical clock.
	FinishMS float64
	// PrefilledTokens counts prompt tokens actually prefetched/prefilled
	// (lower than PromptTokens when a prefix or session cache hit).
	PrefilledTokens int
	// Rejected requests could not be admitted (KV exhaustion with no
	// possibility of progress).
	Rejected bool
	// Instance is the index of the cluster instance that completed the
	// request (0 for single-instance runs).
	Instance int
}

// Report aggregates a simulation.
type Report struct {
	Results []Result
	// MakespanMS is the completion time of the last request.
	MakespanMS float64
	// TTFT and TBT are per-request summaries (rejected excluded).
	TTFT metrics.Summary
	TBT  metrics.Summary
	// OutputTokens totals generated tokens.
	OutputTokens int
	// PrefillTokens totals prefilled tokens (after any cache savings).
	PrefillTokens int
	// PeakKVBlocks is the high-water KV occupancy.
	PeakKVBlocks int
	// Rejected counts requests never served.
	Rejected int
	// Preemptions counts all-or-nothing evictions of running sequences
	// (OnDemand mode only).
	Preemptions int
}

// Throughput is output tokens per second of makespan.
func (r *Report) Throughput() float64 {
	if r.MakespanMS <= 0 {
		return 0
	}
	return float64(r.OutputTokens) / (r.MakespanMS / 1000)
}

// Goodput is the fraction of requests meeting both SLOs (rejected
// requests count against it) — the DistServe measure.
func (r *Report) Goodput(ttftSLOms, tbtSLOms float64) float64 {
	if len(r.Results) == 0 {
		return 0
	}
	good := 0
	for _, res := range r.Results {
		if !res.Rejected && res.TTFTms <= ttftSLOms && res.TBTms <= tbtSLOms {
			good++
		}
	}
	return float64(good) / float64(len(r.Results))
}

// ClassTTFT summarizes TTFT over served requests of one SLO class — the
// per-class latency breakdown the multi-tenant experiments report. A
// class with no served requests yields a zero Summary.
func (r *Report) ClassTTFT(class workload.SLOClass) metrics.Summary {
	var s metrics.Summary
	for i := range r.Results {
		res := &r.Results[i]
		if !res.Rejected && res.Req.SLOClass == class {
			s.Add(res.TTFTms)
		}
	}
	return s
}

// ClassGoodput is Goodput restricted to one SLO class: the fraction of
// that class's requests (rejected included) meeting both SLO bounds.
func (r *Report) ClassGoodput(class workload.SLOClass, ttftSLOms, tbtSLOms float64) float64 {
	total, good := 0, 0
	for i := range r.Results {
		res := &r.Results[i]
		if res.Req.SLOClass != class {
			continue
		}
		total++
		if !res.Rejected && res.TTFTms <= ttftSLOms && res.TBTms <= tbtSLOms {
			good++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// ClassOutputTokens sums emitted tokens of served requests of one SLO
// class — a class-level throughput numerator.
func (r *Report) ClassOutputTokens(class workload.SLOClass) int {
	sum := 0
	for i := range r.Results {
		res := &r.Results[i]
		if !res.Rejected && res.Req.SLOClass == class {
			sum += res.Req.OutputTokens
		}
	}
	return sum
}

// arrivalOrder returns the trace in stable arrival order: reqs itself
// when it already is (every generator emits traces that way), otherwise
// a sorted copy private to the run. Results point into what it returns.
func arrivalOrder(reqs []workload.Request) []workload.Request {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ArrivalMS < reqs[i-1].ArrivalMS {
			ordered := append([]workload.Request(nil), reqs...)
			sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ArrivalMS < ordered[j].ArrivalMS })
			return ordered
		}
	}
	return reqs
}

// buildReport assembles summaries from results.
func buildReport(results []Result) *Report {
	rep := &Report{Results: results}
	for _, res := range results {
		if res.Rejected {
			rep.Rejected++
			continue
		}
		rep.TTFT.Add(res.TTFTms)
		if res.Req.OutputTokens > 1 {
			rep.TBT.Add(res.TBTms)
		}
		rep.OutputTokens += res.Req.OutputTokens
		rep.PrefillTokens += res.PrefilledTokens
		if res.FinishMS > rep.MakespanMS {
			rep.MakespanMS = res.FinishMS
		}
	}
	return rep
}
