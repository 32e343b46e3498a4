package serving

import (
	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// This file is the serving layer's observability seam. Every hook guards
// on a nil tracer (or calls nil-safe obs methods directly), so an
// untraced run — the default everywhere — takes the exact same decisions
// and produces byte-identical reports; tracing only *observes* the
// simulation, it never feeds back into scheduling.
//
// Span taxonomy (see obs package doc):
//
//   - "gpu<i>" / "prefill<i>" / "decode<i>" tracks carry CatGPU iteration
//     spans (one per scheduled iteration, never overlapping within a
//     track) plus "crash"/"preempt"/"reject" instants;
//   - "req/<ID>" tracks carry one CatRequest root span per request with
//     nested phase children: queue → prefill → decode, re-entering queue
//     after a preemption and passing through reroute after a crash (or
//     migrate during a live migration). Phases under one root never
//     overlap — a sequence is resident in one place at a time, an
//     invariant obs.Check enforces. Roots terminate with reason "finish"
//     or "reject";
//   - the registry gains, per instance: <track>/queue_depth,
//     <track>/kv_used_blocks, <track>/kv_capacity_blocks,
//     <track>/cache_saved_tokens, <track>/ckpt_tokens,
//     gpu<i>/breaker_state, and cluster-wide router/crashes plus the
//     recovery counters router/reroute_crash, router/reroute_migration,
//     and router/resume_from_checkpoint.

// reqTrack names a request's lifecycle track.
func reqTrack(r *workload.Request) string { return "req/" + r.ID }

// gaugedKV wraps a KVManager and mirrors its occupancy into an obs gauge
// at the engine's current logical time. Installed only when tracing is
// on, so untraced runs keep the unwrapped allocator.
type gaugedKV struct {
	KVManager
	used *obs.Metric
	eng  *sim.Engine
}

func (g *gaugedKV) sync() {
	g.used.Set(g.eng.Now(), float64(g.KVManager.UsedBlocks()))
}

// Alloc implements KVManager.
func (g *gaugedKV) Alloc(id string, tokens int) bool {
	ok := g.KVManager.Alloc(id, tokens)
	g.sync()
	return ok
}

// Extend implements KVManager.
func (g *gaugedKV) Extend(id string, newTotal int) bool {
	ok := g.KVManager.Extend(id, newTotal)
	g.sync()
	return ok
}

// Free implements KVManager.
func (g *gaugedKV) Free(id string) {
	g.KVManager.Free(id)
	g.sync()
}

// traceDepth records the instance's current queue depth.
func (in *instance) traceDepth(now float64) {
	in.depthGauge.Set(now, float64(in.queueDepth()))
}

// tracePhase closes the sequence's current lifecycle phase and opens the
// next one under its root span.
func (in *instance) tracePhase(now float64, s *seqState, name string) {
	if in.trace == nil {
		return
	}
	in.trace.End(now, s.phase)
	s.phase = in.trace.Begin(now, reqTrack(&s.req), obs.CatRequest, name, s.root)
}

// traceArrive opens the request's root span on first arrival and puts it
// in the queue phase; a re-routed sequence's open reroute hop ends here.
func (in *instance) traceArrive(now float64, s *seqState) {
	if in.trace == nil {
		return
	}
	if s.root == 0 {
		s.root = in.trace.Begin(now, reqTrack(&s.req), obs.CatRequest, "request", 0)
	}
	in.tracePhase(now, s, "queue")
	in.traceDepth(now)
}

// traceFinish terminates the request's lifecycle chain as completed.
func (in *instance) traceFinish(now float64, s *seqState) {
	if in.trace == nil {
		return
	}
	in.trace.End(now, s.phase)
	s.phase = 0
	in.trace.EndReason(now, s.root, "finish")
	in.traceDepth(now)
}

// traceReject terminates the chain as rejected (admission-impossible at
// arrival, or still waiting when the cluster drained).
func (in *instance) traceReject(now float64, s *seqState) {
	if in.trace == nil {
		return
	}
	if s.root == 0 {
		s.root = in.trace.Begin(now, reqTrack(&s.req), obs.CatRequest, "request", 0)
	}
	in.trace.End(now, s.phase)
	s.phase = 0
	in.trace.EndReason(now, s.root, "reject")
}

// traceRejectArrival records an arrival-time rejection for a request that
// never reached an instance (footprint can never fit).
func traceRejectArrival(tr *obs.Tracer, now float64, r *workload.Request) {
	if tr == nil {
		return
	}
	root := tr.Begin(now, reqTrack(r), obs.CatRequest, "request", 0)
	tr.EndReason(now, root, "reject")
}
