package serving

import (
	"fmt"

	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// instance is one GPU running iteration-level continuous batching as an
// event-driven process on a shared sim.Engine. It reproduces, step for
// step, the scheduling loop RunContinuous historically ran standalone —
// admission, dedicated vs chunked prefill, OnDemand preemption — so a
// single instance on a fresh engine yields byte-identical reports; what
// the engine adds is that many instances (and a router, and fault
// windows) can now share one cluster-wide clock.
//
// The instance schedules exactly one event at a time: the end of its
// current iteration. Arrivals land in the waiting queue as engine events
// and are admitted at iteration boundaries, exactly when the historical
// loop ingested them.
//
// The schedule/fire path is allocation-free in steady state: iteration
// events reuse three ArgHandlers bound once at construction (the event
// argument carries the epoch; per-event state like the pending prefill
// sequence lives in pendPrefill/pendCompleting, which is safe because
// the instance has at most one live iteration event — stale pre-crash
// events fail the epoch check before reading anything), the waiting and
// prefill queues are ring deques, and sequences come from a free-listed
// pool (seqpool.go).
type instance struct {
	id   int
	gpu  GPUConfig
	opts ContinuousOpts
	kv   KVManager
	eng  *sim.Engine
	pool *seqPool

	waiting  seqRing
	prefillQ seqRing
	running  []*seqState

	// load is the incrementally maintained sum of seqLoad over every
	// sequence the instance owns (waiting + prefillQ + running). The
	// router reads it on every routing decision, so recomputing it by
	// scanning the queues is quadratic under backlog; instead every
	// ownership change and every seqLoad-relevant field mutation adjusts
	// it in place. The tests' queueLoadScan is the reference
	// implementation.
	load int

	// busy is true while an iteration-end event is scheduled.
	busy bool
	// down is true inside a crash window (cluster fault plans only).
	down bool
	// slow is the straggler cost multiplier (1 = healthy); it scales
	// every iteration scheduled while active.
	slow float64
	// epoch invalidates in-flight iteration events across a crash.
	epoch uint64

	// kickH, prefillEndH, and mixedEndH are the instance's reusable event
	// handlers; pendPrefill and pendCompleting carry the live iteration
	// event's payload.
	kickH, prefillEndH, mixedEndH sim.ArgHandler
	pendPrefill                   *seqState
	pendCompleting                bool

	preemptions int

	// rec, when non-nil, is the routed cluster's shared crash-recovery
	// state (host-side checkpoint store + accounting, ckpt.go); the
	// cluster installs it after construction, so standalone runs keep
	// nil and change nothing. sinceCkpt counts mixed iterations since
	// the last checkpoint capture.
	rec       *recovery
	sinceCkpt int

	// trace, when non-nil, records the instance's timeline (see
	// trace.go); track is its span-track name, depthGauge its live
	// queue-depth gauge, and iterSpan the currently open iteration span
	// (closed by the iteration-end event, or by crash with the event
	// invalidated).
	trace      *obs.Tracer
	track      string
	depthGauge *obs.Metric
	iterSpan   obs.SpanRef

	// onFinish receives every completed sequence's Result.
	onFinish func(now float64, r Result)
	// onDrop receives the sequences lost to a crash, in drop order, for
	// the cluster router to re-route; nil means standalone runs, which
	// never crash.
	onDrop func(now float64, dropped []*seqState)
}

// newInstance builds an idle instance on eng. A nil opts.KV gets a
// private paged allocator, mirroring RunContinuous's default. pool (may
// be nil) recycles finished sequences.
func newInstance(id int, gpu GPUConfig, opts ContinuousOpts, eng *sim.Engine, pool *seqPool, onFinish func(float64, Result)) *instance {
	kv := opts.KV
	if kv == nil {
		kv = NewPagedKV(gpu)
	}
	in := &instance{id: id, gpu: gpu, opts: opts, kv: kv, eng: eng, pool: pool, slow: 1, onFinish: onFinish}
	in.kickH = in.onKick
	in.prefillEndH = in.onPrefillEnd
	in.mixedEndH = in.onMixedEnd
	if opts.Trace != nil {
		in.trace = opts.Trace
		in.track = fmt.Sprintf("gpu%d", id)
		reg := opts.Trace.Registry()
		in.depthGauge = reg.Gauge(in.track + "/queue_depth")
		reg.Gauge(in.track+obs.KVCapacitySuffix).Set(eng.Now(), float64(kv.Capacity()))
		in.kv = &gaugedKV{KVManager: kv, used: reg.Gauge(in.track + obs.KVUsedSuffix), eng: eng}
	}
	return in
}

func (in *instance) active() int { return in.prefillQ.Len() + len(in.running) }

// seqLoad is one sequence's outstanding token work: remaining prefill
// plus remaining decode.
func seqLoad(s *seqState) int {
	remaining := s.req.OutputTokens - s.generated
	if remaining < 0 {
		remaining = 0
	}
	if s.admitted {
		return s.prefillLeft + remaining
	}
	return s.req.PromptTokens - s.saved + s.generated + remaining
}

// queueLoad is the router's live-load signal: tokens of outstanding work
// across every sequence the instance currently owns, waiting included.
// It is O(1): the load field tracks the sum of seqLoad over the queues
// exactly.
func (in *instance) queueLoad() int { return in.load }

// queueDepth is the router's congestion signal: sequences owned.
func (in *instance) queueDepth() int { return in.waiting.Len() + in.active() }

// arrive enqueues a routed request. An idle instance defers its wake to
// a same-instant event, so that simultaneous arrivals are all queued
// before the boundary runs — the event-driven analogue of the historical
// loop jumping its clock to the next arrival and ingesting everything due.
func (in *instance) arrive(now float64, s *seqState) {
	in.waiting.PushBack(s)
	in.load += seqLoad(s)
	in.traceArrive(now, s)
	in.kick()
}

// kick schedules an immediate iteration boundary on an idle instance.
func (in *instance) kick() {
	if in.busy || in.down {
		return
	}
	in.busy = true
	in.eng.AfterArg(0, in.kickH, in.epoch)
}

// onKick is the kick event's handler; the argument is the epoch the
// event was scheduled in.
func (in *instance) onKick(t float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.busy = false
	in.step(t)
}

// admit mirrors the historical admission rule: cache lookups happen on
// first admission only, OnDemand reserves behind the watermark, the
// default reserves the oracle footprint.
func (in *instance) admit(now float64, s *seqState) bool {
	if in.gpu.MaxBatch > 0 && in.active() >= in.gpu.MaxBatch {
		return false
	}
	resumed := 0     // checkpointed context tokens this admission restores
	recomputed := 0  // previously computed tokens lost and re-prefilled here
	if !s.admitted { // cache lookups happen once, not on re-admission
		if in.opts.Prefix != nil {
			s.saved = in.opts.Prefix.SavedTokens(s.req.PrefixID, s.req.PrefixTokens)
		}
		if in.opts.SessionCache != nil {
			if hit := in.opts.SessionCache.Lookup(now, s.req.Session, s.req.HistoryTokens, s.req.PromptTokens); hit > s.saved {
				s.saved = hit
			}
		}
		// generated > 0 only for crash-dropped or migrated sequences
		// being re-admitted elsewhere: context KV not covered by a cache
		// or checkpoint must be recomputed, exactly as after a
		// preemption.
		total := s.req.PromptTokens + s.generated
		cover := s.saved
		restore := 0
		if in.rec != nil {
			if ctx := in.rec.covered(s.req.ID); ctx > 0 {
				if ctx > total {
					ctx = total
				}
				if ctx > cover {
					// Resume from the host-side checkpoint: the covered
					// context ships back to the device, priced in
					// prefill-token equivalents like every other
					// transfer in the store.
					cover = ctx
					restore = int(float64(ctx) * restoreMSPerToken * in.gpu.PrefillTokensPerMS)
					resumed = ctx
				}
			}
		}
		s.prefillLeft = total - cover + restore
		recomputed = total - cover
		if done := s.prefilled + s.generated; recomputed > done {
			recomputed = done // never computed more than this: cap the waste
		}
		if in.trace != nil && s.saved > 0 {
			in.trace.Registry().Counter(in.track+"/cache_saved_tokens").Add(now, float64(s.saved))
		}
	}
	if in.opts.OnDemand {
		// Admit behind the watermark, reserving only what must be
		// prefilled now (plus already-generated tokens of a resumed
		// sequence).
		if float64(in.kv.UsedBlocks()) >= admissionWatermark*float64(in.kv.Capacity()) {
			return false
		}
		if !in.kv.Alloc(s.req.ID, s.prefillLeft+s.generated) {
			return false
		}
	} else {
		// Oracle reservation of the full eventual footprint.
		need := s.req.PromptTokens - s.saved + s.req.OutputTokens
		if resumed > 0 {
			// Checkpoint-restored context replaces part of the prompt
			// recompute: reserve what will actually be materialized.
			need = s.prefillLeft + s.req.OutputTokens - s.generated
		}
		if !in.kv.Alloc(s.req.ID, need) {
			return false
		}
	}
	s.admitted = true
	s.preempted = false
	if in.rec != nil && (s.crashDropped || s.migrated) {
		in.rec.wasted += recomputed
		if s.crashDropped {
			in.rec.recoveryMS.Add(now - s.droppedAtMS)
		}
		if resumed > 0 {
			in.rec.resumes++
			if in.trace != nil {
				in.trace.Registry().Counter("router/resume_from_checkpoint").Add(now, 1)
			}
		}
	}
	s.crashDropped, s.migrated = false, false
	return true
}

// preempt frees every block the victim holds (all-or-nothing), marks it
// preempted for the rest of the current iteration pass, and requeues it
// at the head of the waiting queue; a later prefill recomputes its
// prompt plus everything it had generated.
func (in *instance) preempt(now float64, v *seqState) {
	in.kv.Free(v.req.ID)
	before := seqLoad(v)
	v.preempted = true
	v.prefillLeft = v.req.PromptTokens - v.saved + v.generated
	in.load += seqLoad(v) - before
	in.waiting.PushFront(v)
	in.preemptions++
	if in.trace != nil {
		in.trace.Instant(now, in.track, "preempt")
		in.tracePhase(now, v, "queue")
	}
}

func (in *instance) finish(now float64, s *seqState) {
	in.kv.Free(s.req.ID)
	in.rec.drop(s.req.ID) // reclaim any host-side checkpoint (nil-safe)
	if in.opts.SessionCache != nil && s.req.Session != "" {
		in.opts.SessionCache.Store(now, s.req.Session, s.req.PromptTokens+s.req.OutputTokens)
	}
	r := s.result()
	r.Instance = in.id
	in.traceFinish(now, s)
	in.onFinish(now, r)
	in.pool.put(s) // nothing references s past its Result
}

// step runs at an iteration boundary: admit FCFS, then start the next
// iteration or go idle. One call reproduces one pass of the historical
// RunContinuous loop; the engine's (time, seq) order delivers arrivals
// exactly where the loop used to ingest them.
func (in *instance) step(now float64) {
	if in.down {
		in.busy = false
		return
	}
	for in.waiting.Len() > 0 {
		// The scheduling policy picks the candidate (FCFS picks the head
		// without scanning); it leaves the queue before the admission
		// attempt so a slot preemption's PushFront cannot shift its index.
		s := in.waiting.RemoveAt(in.nextWaiting())
		// admit mutates saved/prefillLeft even when the KV allocation
		// fails, so the load delta applies on both outcomes.
		before := seqLoad(s)
		ok := in.admit(now, s)
		in.load += seqLoad(s) - before
		if !ok && in.opts.PreemptBatch && s.req.SLOClass == workload.Interactive {
			// Evict batch-class running sequences (most recent first)
			// until the interactive candidate fits or none remain.
			for !ok && in.preemptForSlot(now) {
				before = seqLoad(s)
				ok = in.admit(now, s)
				in.load += seqLoad(s) - before
			}
		}
		if !ok {
			in.waiting.PushFront(s)
			break
		}
		in.tracePhase(now, s, "prefill")
		in.prefillQ.PushBack(s)
	}
	if in.active() == 0 {
		in.busy = false
		return // idle: the next arrival (or recovery) re-kicks
	}
	in.busy = true

	if in.opts.ChunkTokens == 0 && in.prefillQ.Len() > 0 {
		// Dedicated prefill iteration: one whole prompt; decodes stall
		// behind it. Effects (including the pop) apply at the end so a
		// crash mid-prefill drops the sequence with everything else.
		s := in.prefillQ.Front()
		iterMS := in.gpu.prefillMS(s.prefillLeft) * in.slow
		in.iterSpan = in.trace.Begin(now, in.track, obs.CatGPU, "prefill", 0)
		in.pendPrefill = s
		in.eng.AtArg(now+iterMS, in.prefillEndH, in.epoch)
		return
	}

	// Periodic decode-state checkpoint: every CkptEveryIters mixed
	// iterations, ship each running sequence's newly covered context
	// tokens to the host-side store. The write cost rides this
	// iteration; it is PCIe traffic, not GPU compute, so the straggler
	// factor does not scale it (added after the slowdown below).
	ckptMS := 0.0
	if in.rec != nil && in.rec.cfg.CkptEveryIters > 0 && len(in.running) > 0 {
		in.sinceCkpt++
		if in.sinceCkpt >= in.rec.cfg.CkptEveryIters {
			in.sinceCkpt = 0
			delta := 0
			for _, rs := range in.running {
				delta += in.rec.save(rs.req.ID, rs.req.PromptTokens+rs.generated)
			}
			if delta > 0 {
				ckptMS = float64(delta) * ckptMSPerToken
				if in.trace != nil {
					in.trace.Registry().Counter(in.track+"/ckpt_tokens").Add(now, float64(delta))
				}
			}
		}
	}

	// One mixed iteration: an optional prefill chunk plus one decode
	// step for every running sequence. Chunk bookkeeping applies now,
	// as the historical loop did; decode effects at the iteration end.
	var iterMS float64
	completing := false
	chunked := false
	if in.opts.ChunkTokens > 0 && in.prefillQ.Len() > 0 {
		s := in.prefillQ.Front()
		chunk := in.opts.ChunkTokens
		if chunk > s.prefillLeft {
			chunk = s.prefillLeft
		}
		iterMS += in.gpu.prefillMS(chunk)
		s.prefillLeft -= chunk
		s.prefilled += chunk
		in.load -= chunk
		chunked = true
		completing = s.prefillLeft == 0 // first token lands at iteration end
	}
	if len(in.running) > 0 {
		iterMS += in.gpu.decodeIterMS(len(in.running))
	}
	if iterMS == 0 {
		iterMS = in.gpu.DecodeBaseMS // defensive: never stall the clock
	}
	iterMS *= in.slow
	iterMS += ckptMS
	iterName := "decode"
	if chunked {
		iterName = "prefill"
		if len(in.running) > 0 {
			iterName = "prefill+decode"
		}
	}
	in.iterSpan = in.trace.Begin(now, in.track, obs.CatGPU, iterName, 0)
	in.pendCompleting = completing
	in.eng.AtArg(now+iterMS, in.mixedEndH, in.epoch)
}

// onPrefillEnd is the dedicated prefill iteration's end event.
func (in *instance) onPrefillEnd(end float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.trace.End(end, in.iterSpan)
	in.iterSpan = 0
	s := in.pendPrefill
	in.pendPrefill = nil
	in.endPrefill(end, s)
}

// onMixedEnd is the mixed iteration's end event.
func (in *instance) onMixedEnd(end float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.trace.End(end, in.iterSpan)
	in.iterSpan = 0
	in.endMixed(end, in.pendCompleting)
}

// endPrefill applies a dedicated prefill iteration's effects. The
// prefill emits the first token unless this is a preempted sequence
// being recomputed, whose first token was already served.
func (in *instance) endPrefill(now float64, s *seqState) {
	in.prefillQ.PopFront()
	before := seqLoad(s)
	s.prefilled += s.prefillLeft
	s.prefillLeft = 0
	if s.generated == 0 {
		s.generated = 1
		s.firstTokenMS = now
	}
	s.finishMS = now
	if s.req.OutputTokens <= s.generated {
		in.load -= before
		in.finish(now, s)
	} else {
		in.load += seqLoad(s) - before
		in.tracePhase(now, s, "decode")
		in.running = append(in.running, s)
	}
	in.step(now)
}

// endMixed applies a mixed iteration's decode step, including OnDemand
// growth and all-or-nothing preemption, then the completing prefill's
// first token. Preemption marks are per-pass: preempt sets the
// sequence's preempted flag and the next successful admission clears it,
// so a sequence marked by an earlier index of this loop is skipped for
// the rest of the pass — exactly the per-call set the historical code
// kept (without its per-iteration map allocation).
func (in *instance) endMixed(now float64, completing bool) {
	var comp *seqState
	if completing {
		comp = in.prefillQ.PopFront()
	}
	stillRunning := in.running[:0]
	for idx, s := range in.running {
		if s.preempted {
			continue
		}
		before := seqLoad(s)
		s.generated++
		s.finishMS = now
		if s.generated >= s.req.OutputTokens {
			in.load -= before
			in.finish(now, s)
			continue
		}
		in.load += seqLoad(s) - before
		if in.opts.OnDemand {
			ok := true
			for !in.kv.Extend(s.req.ID, s.req.PromptTokens-s.saved+s.generated) {
				// Victim: the most recently admitted running sequence
				// that is not s and not already preempted.
				var victim *seqState
				for j := len(in.running) - 1; j > idx; j-- {
					if !in.running[j].preempted {
						victim = in.running[j]
						break
					}
				}
				if victim == nil {
					// No lower-priority sequence to evict: all-or-nothing
					// now applies to s itself — free everything it holds
					// and recompute it later.
					in.preempt(now, s)
					ok = false
					break
				}
				in.preempt(now, victim)
			}
			if !ok {
				continue
			}
		}
		stillRunning = append(stillRunning, s)
	}
	in.running = stillRunning
	if comp != nil && !comp.preempted {
		before := seqLoad(comp)
		if comp.generated == 0 {
			comp.generated = 1
			comp.firstTokenMS = now
		}
		comp.finishMS = now
		if comp.req.OutputTokens <= comp.generated {
			in.load -= before
			in.finish(now, comp)
		} else {
			in.load += seqLoad(comp) - before
			in.tracePhase(now, comp, "decode")
			in.running = append(in.running, comp)
		}
	}
	in.step(now)
}

// crash drops the instance: every owned sequence (in-flight first, then
// the waiting queue) is surrendered through onDrop with its KV freed and
// its cache savings forgotten, the in-flight iteration is invalidated,
// and GPU-resident cache state (prefix cache, session store GPU tier)
// dies with the device.
func (in *instance) crash(now float64) {
	in.down = true
	in.busy = false
	in.epoch++
	in.pendPrefill = nil
	if in.trace != nil {
		// The in-flight iteration's end event is invalidated with the
		// epoch, so its span must close here or dangle.
		in.trace.EndReason(now, in.iterSpan, "crash")
		in.iterSpan = 0
		in.trace.Instant(now, in.track, "crash")
	}
	dropped := make([]*seqState, 0, in.prefillQ.Len()+len(in.running)+in.waiting.Len())
	for i := 0; i < in.prefillQ.Len(); i++ {
		s := in.prefillQ.At(i)
		in.kv.Free(s.req.ID)
		// Admitted sequences held device state the crash destroyed; mark
		// them so the next admission samples recovery latency and wasted
		// recompute. Waiting sequences held nothing, so they reroute
		// unmarked.
		s.crashDropped, s.droppedAtMS = true, now
		dropped = append(dropped, s)
	}
	for _, s := range in.running {
		in.kv.Free(s.req.ID)
		s.crashDropped, s.droppedAtMS = true, now
		dropped = append(dropped, s)
	}
	in.sinceCkpt = 0
	for i := 0; i < in.waiting.Len(); i++ {
		dropped = append(dropped, in.waiting.At(i)) // never admitted: hold no KV
	}
	in.prefillQ.Clear()
	in.waiting.Clear()
	for i := range in.running {
		in.running[i] = nil
	}
	in.running = in.running[:0]
	in.load = 0 // every owned sequence just left; resets below touch unowned seqs
	if in.opts.Prefix != nil {
		in.opts.Prefix.Invalidate()
	}
	if in.opts.SessionCache != nil {
		in.opts.SessionCache.DropGPU()
	}
	for _, s := range dropped {
		// Emitted tokens were already streamed to the client and are
		// kept; their KV (and any cache savings) must be recomputed
		// wherever the sequence lands next.
		s.admitted = false
		s.preempted = false
		s.saved = 0
		s.prefillLeft = 0
		// The reroute hop spans detection delay + routing; it closes when
		// the sequence arrives at its next instance.
		in.tracePhase(now, s, "reroute")
	}
	if in.onDrop != nil && len(dropped) > 0 {
		in.onDrop(now, dropped)
	}
	if in.trace != nil {
		in.traceDepth(now)
	}
}

// recoverAt brings a crashed instance back empty; anything queued while
// it was down (routed by a policy that kept trying) starts immediately.
func (in *instance) recoverAt(now float64) {
	in.down = false
	if in.waiting.Len() > 0 {
		in.kick()
	}
}

// setSlowdown applies a straggler window's cost factor; it takes effect
// from the next scheduled iteration.
func (in *instance) setSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	in.slow = factor
}

// scheduleArrivals streams the requests reqs[first], reqs[first+stride],
// ... to inst, one engine event each in arrival order: requests whose
// footprint can never fit are rejected at arrival, mirroring the
// historical loop's ingest check. reqs must already be in arrival order
// (arrivalOrder). The arrivals go through sim.Engine.Stream, so the
// queue holds one pending arrival rather than the whole trace, and one
// shared ArgHandler carries the position in the stream.
func scheduleArrivals(eng *sim.Engine, gpu GPUConfig, reqs []workload.Request, first, stride int, inst *instance, pool *seqPool, reject func(Result)) {
	capacityTokens := inst.kv.Capacity() * gpu.BlockSize
	n := 0
	if first < len(reqs) {
		n = (len(reqs) - first + stride - 1) / stride
	}
	deliver := func(now float64, k uint64) {
		r := &reqs[first+int(k)*stride]
		footprint := r.PromptTokens + r.OutputTokens
		if footprint > capacityTokens || footprint > gpu.MaxSeqLen {
			traceRejectArrival(inst.trace, now, r)
			reject(Result{Req: r, Rejected: true})
			return
		}
		inst.arrive(now, pool.get(r))
	}
	eng.Stream(n, func(k int) float64 { return reqs[first+k*stride].ArrivalMS }, deliver)
}
