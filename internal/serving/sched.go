package serving

import (
	"fmt"

	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// seqState tracks one request through the simulator.
type seqState struct {
	// req is the sequence's own copy of its request, which scheduling
	// reads all the time (a priority scan reads every waiting sequence's
	// class; a pointer here would cost each read a second dereference).
	// src is the trace element it was copied from: the Result's Req.
	req workload.Request
	src *workload.Request
	// prefillLeft is the number of prompt tokens still to prefill.
	prefillLeft int
	// prefilled is the number actually prefilled (after cache savings).
	prefilled int
	// generated counts emitted output tokens.
	generated    int
	firstTokenMS float64
	finishMS     float64
	admitted     bool
	// preempted marks a sequence evicted during the current iteration
	// pass (endMixed); the next successful admission clears it.
	preempted bool
	// saved is the prompt span satisfied from a prefix/session cache.
	saved int
	// crashDropped / migrated mark a sequence in flight between
	// instances (crash reroute or live migration); the next successful
	// admission consumes them for recovery accounting. droppedAtMS is
	// the crash instant, for the drop→re-admission latency sample.
	crashDropped bool
	migrated     bool
	droppedAtMS  float64
	// root and phase are the request's lifecycle spans when tracing is
	// on (zero refs otherwise, safe to End): root covers arrival to
	// terminal, phase is the currently open queue/prefill/decode/reroute
	// child.
	root, phase obs.SpanRef
}

func (s *seqState) result() Result {
	r := Result{
		Req:             s.src,
		FinishMS:        s.finishMS,
		TTFTms:          s.firstTokenMS - s.req.ArrivalMS,
		PrefilledTokens: s.prefilled,
	}
	if s.req.OutputTokens > 1 {
		r.TBTms = (s.finishMS - s.firstTokenMS) / float64(s.req.OutputTokens-1)
	}
	return r
}

// RunStatic serves the trace with static batching: requests are grouped
// in arrival order into batches of batchSize; each batch is prefilled
// then decoded to the *longest* member's completion before the next
// batch starts — early finishers hold their slot, which is exactly the
// inefficiency continuous batching removes.
func RunStatic(gpu GPUConfig, reqs []workload.Request, batchSize int) (*Report, error) {
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("%w: batch size %d", ErrConfig, batchSize)
	}
	kv := NewContiguousKV(gpu)
	maxBatch := kv.Capacity() / ((gpu.MaxSeqLen + gpu.BlockSize - 1) / gpu.BlockSize)
	if batchSize > maxBatch && maxBatch > 0 {
		batchSize = maxBatch
	}
	ordered := arrivalOrder(reqs)

	results := make([]Result, 0, len(ordered))
	clock := 0.0
	for start := 0; start < len(ordered); start += batchSize {
		end := start + batchSize
		if end > len(ordered) {
			end = len(ordered)
		}
		batch := make([]*seqState, 0, end-start)
		for k := start; k < end; k++ {
			r := &ordered[k]
			if r.ArrivalMS > clock {
				clock = r.ArrivalMS // batch forms when its members arrived
			}
			s := &seqState{req: *r, src: r, prefillLeft: r.PromptTokens}
			kv.Alloc(r.ID, r.PromptTokens+r.OutputTokens)
			batch = append(batch, s)
		}
		// Sequential prefill; each member's first token arrives at the
		// end of its own prefill.
		for _, s := range batch {
			clock += gpu.prefillMS(s.prefillLeft)
			s.prefilled = s.prefillLeft
			s.prefillLeft = 0
			s.generated = 1
			s.firstTokenMS = clock
			s.finishMS = clock
		}
		// Lock-step decode until the longest output completes. The
		// iteration cost always charges the full batch width.
		maxOut := 0
		for _, s := range batch {
			if s.req.OutputTokens > maxOut {
				maxOut = s.req.OutputTokens
			}
		}
		for it := 1; it < maxOut; it++ {
			clock += gpu.decodeIterMS(len(batch))
			for _, s := range batch {
				if s.generated < s.req.OutputTokens {
					s.generated++
					s.finishMS = clock
				}
			}
		}
		for _, s := range batch {
			kv.Free(s.req.ID)
			results = append(results, s.result())
		}
	}
	rep := buildReport(results)
	rep.PeakKVBlocks = kv.PeakBlocks()
	return rep, nil
}

// ContinuousOpts configures RunContinuous.
type ContinuousOpts struct {
	// KV selects the allocator; nil defaults to paged.
	KV KVManager
	// ChunkTokens > 0 enables Sarathi-style chunked prefill: each
	// iteration processes at most ChunkTokens prefill tokens *alongside*
	// the decode batch, so decodes never stall behind a long prompt.
	// 0 runs whole prompts in dedicated prefill iterations (Orca/vLLM
	// default), stalling decodes for the duration.
	ChunkTokens int
	// Prefix enables shared-prefix KV reuse.
	Prefix *PrefixCache
	// SessionCache enables multi-turn KV reuse across a conversation
	// (AttentionStore-style); see store.go.
	SessionCache *SessionStore
	// Sched selects batch-formation order across SLO classes at
	// iteration boundaries (see SchedPolicy). The zero value is FCFS,
	// the historical behavior.
	Sched SchedPolicy
	// PreemptBatch lets an interactive sequence that cannot be admitted
	// evict the most recently admitted batch-class running sequence and
	// take its slot; the victim recomputes later, as after any
	// preemption. Only meaningful alongside a priority-aware Sched.
	PreemptBatch bool
	// OnDemand switches KV management to vLLM's actual discipline [28]:
	// output lengths are unknown to the scheduler, admission reserves
	// only the prompt (behind a watermark), blocks grow one step at a
	// time during decoding, and exhaustion preempts the most recently
	// admitted sequence with all-or-nothing eviction — every block it
	// holds is freed and its state is recomputed by a later prefill.
	// The default (false) reserves each sequence's full footprint up
	// front using the trace's known output length (an oracle real
	// servers lack).
	OnDemand bool
	// Trace, when non-nil, records the run's timeline (spans, instants,
	// and registry gauges — see trace.go and internal/obs). Tracing only
	// observes the simulation: a nil Trace (the default) changes nothing
	// and costs nothing.
	Trace *obs.Tracer
	// Decisions, when non-nil, appends one obs.Decision per routing
	// decision of a routed run (fresh arrivals and crash reroutes): the
	// scored candidate vector, the chosen instance, and the logical
	// decision time — the record ReplayRegret replays against. When a
	// Trace is also set, the log is attached to it, so obs.Check
	// verifies decisions against the timeline. Nil (the default)
	// records nothing and adds nothing to the route path. Ignored
	// outside the RunRouted* entry points.
	Decisions *obs.DecisionLog
	// Force, when non-nil, overrides one routing decision during a
	// counterfactual replay: the Force.Decision-th route call returns
	// its Force.Rank-th scored alternative instead of the argmin, with
	// every other decision re-decided live by the policy. Ignored
	// outside the RunRouted* entry points.
	Force *ForcedChoice
}

// admissionWatermark is the occupancy fraction above which OnDemand mode
// stops admitting: vLLM keeps headroom so fresh admissions don't
// immediately force preemptions of running sequences.
const admissionWatermark = 0.95

// RunContinuous serves the trace with iteration-level (continuous)
// batching on one GPU. Since the event-engine refactor it is a one-
// instance cluster: the instance runs as a discrete-event process on a
// private sim.Engine, with identical scheduling (and identical numbers)
// to the historical standalone loop.
func RunContinuous(gpu GPUConfig, reqs []workload.Request, opts ContinuousOpts) (*Report, error) {
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if opts.ChunkTokens < 0 {
		return nil, fmt.Errorf("%w: chunk tokens %d", ErrConfig, opts.ChunkTokens)
	}
	ordered := arrivalOrder(reqs)

	eng := sim.NewEngine()
	pool := &seqPool{}
	results := make([]Result, 0, len(ordered))
	inst := newInstance(0, gpu, opts, eng, pool, func(_ float64, r Result) { results = append(results, r) })
	scheduleArrivals(eng, gpu, ordered, 0, 1, inst, pool, func(r Result) { results = append(results, r) })
	eng.Run()

	// Anything still waiting could never be admitted (footprint larger
	// than the whole cache): report as rejected and reclaim the state —
	// the Result points at the trace, not at the pooled sequence, so
	// pooling is safe.
	for inst.waiting.Len() > 0 {
		s := inst.waiting.PopFront()
		inst.load -= seqLoad(s)
		inst.traceReject(eng.Now(), s)
		results = append(results, Result{Req: s.src, Rejected: true})
		pool.put(s)
	}
	rep := buildReport(results)
	rep.PeakKVBlocks = inst.kv.PeakBlocks()
	rep.Preemptions = inst.preemptions
	return rep, nil
}
