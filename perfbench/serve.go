package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"

	"dataai/internal/obs"
	"dataai/internal/serving"
	"dataai/internal/workload"
)

// serveWorkload is one workload of the serving simulator: how its trace
// is generated from the seed and how the routed call serves it.
type serveWorkload struct {
	name      string
	n         int
	instances int
	// obsPrefix is the number of requests (a prefix of the trace by
	// arrival) the obs-on pass of a traced run serves.
	obsPrefix int
	// ttftSLO and tbtSLO are the goodput limits, in simulated ms.
	ttftSLO, tbtSLO float64
	generate        func(seed int64, n int) ([]workload.Request, error)
	route           func(reqs []workload.Request, tr *obs.Tracer, dl *obs.DecisionLog) (*serving.RoutedReport, error)
	// mechanisms lists the checks that the workload's mechanism fired.
	mechanisms func(rep *serving.RoutedReport) []mechanism
}

// mechanism is one named check on a routed report.
type mechanism struct {
	what string
	ok   bool
}

// scaled multiplies a full-size count by the run's -scale, keeping it
// at least 1.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// faultPlanSeed fixes serve-faults' crash and straggler schedule (E23's
// scale-test plan). The workload seed draws the request trace only: the
// plan's draws, not the trace, set most of the simulated TTFT, so a
// seeded plan would make the seed, not the code, dominate the spread
// between runs.
const faultPlanSeed = 2303

// serveFaults is E23 at the ROADMAP's scale: a 10^6-request Poisson
// trace with shared prefixes, routed breaker-aware over 100 instances
// under the severe fault plan.
func serveFaults(scale float64) serveWorkload {
	const instances = 100
	n := scaled(1_000_000, scale)
	return serveWorkload{
		name: "serve-faults", n: n, instances: instances,
		obsPrefix: min(n, 100_000),
		ttftSLO:   1500, tbtSLO: 25,
		generate: func(seed int64, n int) ([]workload.Request, error) {
			cfg := workload.DefaultTrace(seed, n, 1500)
			cfg.SharedPrefixes = 8
			cfg.SharedPrefixTokens = 192
			cfg.SharedPrefixProb = 0.6
			return workload.Generate(cfg)
		},
		route: func(reqs []workload.Request, tr *obs.Tracer, dl *obs.DecisionLog) (*serving.RoutedReport, error) {
			opts := serving.ContinuousOpts{ChunkTokens: 256, Trace: tr, Decisions: dl}
			return serving.RunRoutedFaults(serving.DefaultGPU(), reqs, instances, serving.BreakerAware,
				opts, serving.SevereFaultPlan(faultPlanSeed))
		},
		mechanisms: func(rep *serving.RoutedReport) []mechanism {
			return []mechanism{
				{"crashes > 0", rep.Crashes > 0},
				{"reroutes > 0", rep.Rerouted > 0},
				{"prefix hits > 0", rep.PrefixHits > 0},
				{"no admission holds", rep.AdmissionDelayed == 0 && rep.AdmissionRejected == 0},
			}
		},
	}
}

// Sizing of serve-tenants. E25 saturates 4 instances at 130 req/s; this
// workload runs 16 instances at tenantsRatePerInstance req/s each, with
// the E25 token buckets scaled by the instance count. At 36 req/s per
// instance and below the admitted load fits and preemption barely fires;
// 40 sits on the boundary, where goodput and TTFT p99 are bimodal across
// seeds; at 43 instances stay past decode capacity and preempt on every
// seed.
const (
	tenantsInstances       = 16
	tenantsRatePerInstance = 43.0
)

// serveTenants is the multi-tenant mix past decode capacity: admission
// queueing at the router and class-priority scheduling with batch-slot
// preemption, no faults and no shared prefixes.
func serveTenants(scale float64) serveWorkload {
	const instances = tenantsInstances
	n := scaled(200_000, scale)
	rate := tenantsRatePerInstance * instances
	spec := func(seed int64, n int) workload.WorkloadSpec {
		return workload.DefaultMultiTenant(seed, n, rate)
	}
	weights := map[string]float64{}
	for _, c := range spec(0, 1).Clients {
		weights[c.TenantID] = c.RateFraction
	}
	perE25 := float64(instances) / 4
	adm := serving.AdmissionConfig{
		Policy:       serving.AdmitQueue,
		BurstTokens:  30000 * perE25,
		RefillPerSec: 36000 * perE25,
		MaxQueueMS:   2000,
		Weights:      weights,
	}
	return serveWorkload{
		name: "serve-tenants", n: n, instances: instances,
		obsPrefix: min(n, 100_000),
		ttftSLO:   1500, tbtSLO: 25,
		generate: func(seed int64, n int) ([]workload.Request, error) {
			return workload.GenerateSpec(spec(seed, n))
		},
		route: func(reqs []workload.Request, tr *obs.Tracer, dl *obs.DecisionLog) (*serving.RoutedReport, error) {
			opts := serving.ContinuousOpts{
				ChunkTokens: 256, Sched: serving.SchedPriority, PreemptBatch: true,
				Trace: tr, Decisions: dl,
			}
			return serving.RunRoutedAdmission(serving.DefaultGPU(), reqs, instances, serving.CacheAware,
				opts, nil, serving.RecoveryConfig{}, adm)
		},
		mechanisms: func(rep *serving.RoutedReport) []mechanism {
			return []mechanism{
				{"admission holds > 0", rep.AdmissionDelayed > 0},
				{"preemptions > 0", rep.Preemptions > 0},
				{"prefix hits == 0", rep.PrefixHits == 0},
				{"no crashes or reroutes", rep.Crashes == 0 && rep.Rerouted == 0},
			}
		},
	}
}

// runServe runs a serving workload: the end-to-end measurement, or with
// o.trace the per-layer one.
func runServe(w serveWorkload, o options, res *result) error {
	reqs, setup, err := serveSetup(w, o, res)
	if err != nil {
		return err
	}
	if o.trace {
		return serveTraced(w, o.seed, res, reqs)
	}
	var routeS, routeRef []float64
	firstDigest := ""
	measure := startWatch()
	for pass := 0; pass < minPasses || measure.seconds() < o.seconds; pass++ {
		runtime.GC()
		sw := startWatch()
		rep, err := w.route(reqs, nil, nil)
		secs := sw.seconds()
		if err != nil {
			res.fail("route", err)
			return fmt.Errorf("routed call: %w", err)
		}
		routeS = append(routeS, secs)
		routeRef = append(routeRef, secs*res.host.factor(secs))
		digest := checkServe(w, res, reqs, rep)
		if pass == 0 {
			firstDigest = digest
			for _, m := range w.mechanisms(rep) {
				res.check("route", m.ok, "mechanism: %s", m.what)
			}
			serveOutcome(w, res, rep)
		} else {
			res.check("route", digest == firstDigest, "pass %d digest %s differs from pass 0 %s", pass, digest, firstDigest)
		}
	}
	if err := res.host.failure(); err != nil {
		return err
	}
	res.digest = firstDigest
	routeMed := median(routeRef[1:])
	res.note("host speed: %s", res.host.describe())
	res.note("route passes %d (first warms up), ref s per pass: median %.4f min %.4f max %.4f; host s per pass: median %.4f min %.4f max %.4f",
		len(routeS), routeMed, slices.Min(routeRef[1:]), slices.Max(routeRef[1:]),
		median(routeS[1:]), slices.Min(routeS[1:]), slices.Max(routeS[1:]))
	res.note("host s: setup %.4f, route %.4f, %.6g req/s", setup.host, median(routeS[1:]), float64(w.n)/median(routeS[1:]))
	res.set("setup_s", setup.ref)
	res.set("wall_s", setup.ref+routeMed)
	res.set("throughput_per_s", float64(w.n)/routeMed)
	res.show("setup_s", setup.ref, "ref_s")
	res.show("serve.req_per_s", float64(w.n)/routeMed, "req/ref_s")
	return nil
}

// setupTime is the median time of a run's repeated set-up, in host
// seconds and in reference seconds (see hostspeed.go).
type setupTime struct{ host, ref float64 }

// serveSetup generates the trace repeatedly (see moreSetup) and returns
// it with the median generation time. Traced runs also record allocation
// per request.
func serveSetup(w serveWorkload, o options, res *result) ([]workload.Request, setupTime, error) {
	var reqs []workload.Request
	var genS, genRef, allocPerReq []float64
	setup := startWatch()
	for i := 0; moreSetup(i, setup); i++ {
		reqs = nil
		runtime.GC()
		before := readRuntime()
		span := res.begin("setup", "workload.Generate", 0)
		sw := startWatch()
		got, err := w.generate(o.seed, w.n)
		secs := sw.seconds()
		res.end(span)
		after := readRuntime()
		if err != nil {
			res.fail("setup", err)
			return nil, setupTime{}, fmt.Errorf("generate: %w", err)
		}
		genRef = append(genRef, secs*res.host.factor(secs))
		res.check("setup", len(got) == w.n, "generated %d requests, want %d", len(got), w.n)
		reqs = got
		genS = append(genS, secs)
		allocPerReq = append(allocPerReq, float64(after.allocBytes-before.allocBytes)/float64(w.n))
	}
	if o.trace {
		res.set("workload.gen_s", median(genS))
		res.set("workload.alloc_bytes_per_req", median(allocPerReq))
	}
	return reqs, setupTime{host: median(genS), ref: median(genRef)}, nil
}

// minPasses is the fewest measured passes a run makes. The first pass
// warms the heap up (its fresh memory is page-faulted in) and is checked
// but left out of the timed medians.
const minPasses = 3

// moreSetup reports whether a run repeats its set-up again after i
// repetitions: at least 5 times and for at least 2 s, at most 50 times.
// setup_s is the median.
func moreSetup(i int, setup stopwatch) bool {
	return i < 5 || (i < 50 && setup.seconds() < 2)
}

// serveOutcome records the simulated outcome metrics of a report.
func serveOutcome(w serveWorkload, res *result, rep *serving.RoutedReport) {
	goodput := rep.Goodput(w.ttftSLO, w.tbtSLO)
	p50 := rep.TTFT.P50()
	p99 := rep.TTFT.P99()
	res.set("quality", goodput)
	res.set("latency_p50_ms", p50)
	res.set("latency_p99_ms", p99)
	res.show("sim.goodput", goodput, fmt.Sprintf("ratio (TTFT<=%gms, TBT<=%gms)", w.ttftSLO, w.tbtSLO))
	res.show("sim.ttft_p50_ms", p50, "sim_ms")
	res.show("sim.ttft_p99_ms", p99, fmt.Sprintf("sim_ms (n=%d served)", rep.TTFT.Count()))
	res.note("report: finished %d rejected %d crashes %d rerouted %d prefix hits %d misses %d admission delayed %d rejected %d preemptions %d",
		len(rep.Results)-rep.Rejected, rep.Rejected, rep.Crashes, rep.Rerouted, rep.PrefixHits, rep.PrefixMisses,
		rep.AdmissionDelayed, rep.AdmissionRejected, rep.Preemptions)
}

// checkServe checks that every request resolved exactly once, records
// the per-request accounting under phase "route", and returns the
// report's output digest.
func checkServe(w serveWorkload, res *result, reqs []workload.Request, rep *serving.RoutedReport) string {
	seen := make([]bool, len(reqs))
	unresolved := len(reqs)
	extra := 0
	rejected := 0
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Rejected {
			rejected++
		}
		k, ok := requestIndex(reqs, r.Req.ID)
		if !ok || seen[k] {
			extra++
			continue
		}
		seen[k] = true
		unresolved--
	}
	res.ops("route", len(reqs), unresolved)
	res.check("route", len(rep.Results) == len(reqs), "%d results for %d requests", len(rep.Results), len(reqs))
	res.check("route", extra == 0, "%d results with unknown or duplicate request IDs", extra)
	finished := len(rep.Results) - rejected
	res.check("route", rejected == rep.Rejected && finished+rep.Rejected == len(reqs),
		"finished %d + rejected %d (report says %d) != %d requests", finished, rejected, rep.Rejected, len(reqs))
	return serveDigest(rep)
}

// requestIndex maps a generated request ID ("r%05d", its index in the
// trace) back to its index, checking that the trace agrees.
func requestIndex(reqs []workload.Request, id string) (int, bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	k, err := strconv.Atoi(id[1:])
	if err != nil || k < 0 || k >= len(reqs) || reqs[k].ID != id {
		return 0, false
	}
	return k, true
}

// serveDigest hashes a canonical encoding of the simulated outputs:
// every result's request ID, instance, TTFT, TBT, finish time and
// rejected flag in report order, then the report's counters.
func serveDigest(rep *serving.RoutedReport) string {
	h := sha256.New()
	d := digester{w: h}
	d.int(len(rep.Results))
	for i := range rep.Results {
		r := &rep.Results[i]
		d.str(r.Req.ID)
		d.int(r.Instance)
		d.float(r.TTFTms)
		d.float(r.TBTms)
		d.float(r.FinishMS)
		d.bool(r.Rejected)
	}
	d.float(rep.MakespanMS)
	for _, v := range []int{
		rep.OutputTokens, rep.PrefillTokens, rep.PeakKVBlocks, rep.Rejected, rep.Preemptions,
		rep.PrefixHits, rep.PrefixMisses, rep.Rerouted, rep.Crashes, rep.Migrations,
		rep.ResumedFromCkpt, rep.WastedRecomputeTokens, rep.AdmissionRejected, rep.AdmissionDelayed,
	} {
		d.int(v)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// digester writes a canonical binary encoding into a hash.
type digester struct {
	w   io.Writer
	buf [8]byte
}

func (d *digester) uint(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	_, _ = d.w.Write(d.buf[:]) // hash writers never fail
}

func (d *digester) int(v int) { d.uint(uint64(v)) }

func (d *digester) float(v float64) { d.uint(math.Float64bits(v)) }

func (d *digester) bool(v bool) {
	if v {
		d.uint(1)
	} else {
		d.uint(0)
	}
}

func (d *digester) str(s string) {
	d.int(len(s))
	_, _ = io.WriteString(d.w, s) // hash writers never fail
}
