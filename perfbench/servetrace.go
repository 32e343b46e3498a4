package main

import (
	"fmt"
	"runtime"

	"dataai/internal/obs"
	"dataai/internal/serving"
	"dataai/internal/workload"
)

// serveTraced is the per-layer run of a serving workload:
//
//  1. one routed call over the whole trace with nothing attached, for
//     the serving.* runtime counters and the report-derived counters;
//  2. the trace's generation and the same call under a CPU profile,
//     folded into cpu.* shares; the difference between the two routed
//     calls is the benchmark's tracing overhead;
//  3. a prefix of the trace served twice, without and with an
//     obs.Tracer and obs.DecisionLog attached, for router.decisions,
//     phase.* and obs.*. The prefix keeps the span memory of the obs-on
//     run bounded at the full 10^6-request scale.
func serveTraced(w serveWorkload, seed int64, res *result, reqs []workload.Request) error {
	n := float64(w.n)

	// (1) Plain routed call with runtime counters around it.
	runtime.GC()
	before := readRuntime()
	span := res.begin("serve", "serving.RunRouted", 0)
	sw := startWatch()
	rep, err := w.route(reqs, nil, nil)
	runS := sw.seconds()
	res.end(span)
	after := readRuntime()
	if err != nil {
		res.fail("route", err)
		return fmt.Errorf("routed call: %w", err)
	}
	retained := float64(liveAfterGC()) - float64(before.liveBytes)
	digest := checkServe(w, res, reqs, rep)
	for _, m := range w.mechanisms(rep) {
		res.check("route", m.ok, "mechanism: %s", m.what)
	}
	res.digest = digest
	res.set("serving.run_s", runS)
	res.set("serving.mallocs_per_req", float64(after.allocObjects-before.allocObjects)/n)
	res.set("serving.alloc_bytes_per_req", float64(after.allocBytes-before.allocBytes)/n)
	res.set("serving.gc_cpu_frac", (after.gcCPUSeconds-before.gcCPUSeconds)/runS)
	res.set("serving.retained_bytes_per_req", retained/n)
	reportCounters(w, res, rep)
	serveOutcome(w, res, rep)

	// (2) Generation and the same call under a CPU profile.
	runtime.GC()
	var profiled *serving.RoutedReport
	var profS float64
	profile, err := cpuProfile(func() error {
		span := res.begin("serve", "workload.Generate (cpu profile)", 0)
		again, err := w.generate(seed, w.n)
		res.end(span)
		if err != nil {
			return err
		}
		span = res.begin("serve", "serving.RunRouted (cpu profile)", 0)
		sw := startWatch()
		profiled, err = w.route(again, nil, nil)
		profS = sw.seconds()
		res.end(span)
		return err
	})
	if err != nil {
		res.fail("route", err)
		return fmt.Errorf("profiled run: %w", err)
	}
	d2 := checkServe(w, res, reqs, profiled)
	res.check("route", d2 == digest, "profiled pass digest %s differs from %s", d2, digest)
	res.set("bench.trace_overhead_frac", (profS-runS)/runS)
	if err := foldProfile(res, profile); err != nil {
		return err
	}

	// (3) The obs-on pass over a prefix of the trace.
	return serveObs(w, res, reqs[:w.obsPrefix])
}

// reportCounters records the per-layer counters a routed report carries.
func reportCounters(w serveWorkload, res *result, rep *serving.RoutedReport) {
	n := float64(w.n)
	res.set("router.reroutes_per_req", float64(rep.Rerouted)/n)
	if total := rep.PrefixHits + rep.PrefixMisses; total > 0 {
		res.set("router.prefix_hit_ratio", float64(rep.PrefixHits)/float64(total))
	} else {
		res.set("router.prefix_hit_ratio", 0)
	}
	res.set("router.admission_delayed_frac", float64(rep.AdmissionDelayed)/n)
	res.set("router.admission_rejected_frac", float64(rep.AdmissionRejected)/n)
	res.set("instance.prefill_tokens_per_req", float64(rep.PrefillTokens)/n)
	res.set("instance.wasted_recompute_tokens_per_req", float64(rep.WastedRecomputeTokens)/n)
	res.set("instance.preemptions_per_req", float64(rep.Preemptions)/n)
	res.set("recovery.ms_p99", rep.RecoveryMS.P99())
	capacity := float64(w.instances * serving.DefaultGPU().KVBlocks)
	res.set("kv.peak_blocks_frac", float64(rep.PeakKVBlocks)/capacity)
}

// foldProfile records the CPU shares of the packages the per-layer
// metrics name.
func foldProfile(res *result, profile []byte) error {
	shares, err := packageShares(profile)
	if err != nil {
		return fmt.Errorf("folding cpu profile: %w", err)
	}
	for _, pkg := range []string{"sim", "serving", "workload", "metrics", "gc", "vecdb", "embed", "llm", "docstore", "token"} {
		res.set("cpu."+pkg+"_share", shares[pkg])
	}
	return nil
}

// serveObs serves prefix without and with obs attached and records the
// router, phase and obs metrics. Tracing must observe only: the obs-on
// report's digest has to equal the obs-off one.
func serveObs(w serveWorkload, res *result, prefix []workload.Request) error {
	m := float64(len(prefix))
	runtime.GC()
	span := res.begin("obs", "serving.RunRouted (prefix, obs off)", 0)
	sw := startWatch()
	off, err := w.route(prefix, nil, nil)
	offS := sw.seconds()
	res.end(span)
	if err != nil {
		res.fail("obs", err)
		return fmt.Errorf("prefix routed call: %w", err)
	}
	offDigest := serveDigest(off)

	runtime.GC()
	tr, dl := obs.NewTracer(), obs.NewDecisionLog()
	span = res.begin("obs", "serving.RunRouted (prefix, obs on)", 0)
	sw = startWatch()
	on, err := w.route(prefix, tr, dl)
	onS := sw.seconds()
	res.end(span)
	if err != nil {
		res.fail("obs", err)
		return fmt.Errorf("traced prefix routed call: %w", err)
	}
	onDigest := serveDigest(on)
	res.check("obs", onDigest == offDigest, "obs-on digest %s differs from obs-off %s", onDigest, offDigest)
	res.set("obs.overhead_x", onS/offS)
	res.set("router.decisions_per_req", float64(dl.Len())/m)
	res.set("obs.spans_per_req", float64(len(tr.Spans()))/m)

	span = res.begin("obs", "obs.WriteChrome", 0)
	sw = startWatch()
	var cw countingWriter
	err = tr.WriteChrome(&cw)
	res.set("obs.write_chrome_s", sw.seconds())
	res.end(span)
	res.check("obs", err == nil, "WriteChrome: %v", err)
	res.set("obs.trace_bytes_per_req", float64(cw.n)/m)

	span = res.begin("obs", "obs.Check", 0)
	sw = startWatch()
	err = tr.Check()
	res.set("obs.check_s", sw.seconds())
	res.end(span)
	res.check("obs", err == nil, "obs.Check: %v", err)

	_, phases := obs.PhaseBreakdown(tr)
	for _, p := range []string{"queue", "prefill", "decode", "reroute"} {
		var mean float64
		if s, ok := phases[p]; ok {
			mean = s.Mean()
		}
		res.set("phase."+p+"_ms_mean", mean)
	}
	if s, ok := phases["queue"]; ok {
		res.set("phase.queue_ms_p99", s.P99())
	} else {
		res.set("phase.queue_ms_p99", 0)
	}
	res.note("obs pass: prefix of %d of %d requests (by arrival), %d decisions, %d spans, %d trace bytes",
		len(prefix), w.n, dl.Len(), len(tr.Spans()), cw.n)
	return nil
}

// countingWriter counts the bytes written to it and discards them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
