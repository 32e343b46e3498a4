package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"dataai/internal/obs"
)

// metricDef is one registered metric: its name, unit and which
// direction is better. BENCHMARK.json at the repository root lists the
// same metrics (the registry test holds the two in step); README.md
// records each metric's layer and the end-to-end metric it should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (-trace 0). Every
// workload reports every one; README.md maps the generic names onto
// each workload (throughput_per_s is serve.req_per_s on serve-* and
// rag.ingest_chunks_per_s on rag-hnsw, and so on).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"throughput_per_s", "1/s", "higher"},
	{"quality", "ratio", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
}

// perLayer are the metrics of a traced run (-trace 1). A metric of a
// layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s", "lower"},
	{"workload.alloc_bytes_per_req", "B/req", "lower"},
	{"serving.run_s", "s", "lower"},
	{"serving.mallocs_per_req", "count/req", "lower"},
	{"serving.gc_cpu_frac", "ratio", "lower"},
	{"serving.alloc_bytes_per_req", "B/req", "lower"},
	{"serving.retained_bytes_per_req", "B/req", "lower"},
	{"router.decisions_per_req", "count/req", "lower"},
	{"router.reroutes_per_req", "count/req", "lower"},
	{"router.prefix_hit_ratio", "ratio", "higher"},
	{"router.admission_delayed_frac", "ratio", "lower"},
	{"router.admission_rejected_frac", "ratio", "lower"},
	{"instance.prefill_tokens_per_req", "tokens/req", "lower"},
	{"instance.wasted_recompute_tokens_per_req", "tokens/req", "lower"},
	{"instance.preemptions_per_req", "count/req", "lower"},
	{"recovery.ms_p99", "sim_ms", "lower"},
	{"kv.peak_blocks_frac", "ratio", "lower"},
	{"phase.queue_ms_mean", "sim_ms", "lower"},
	{"phase.queue_ms_p99", "sim_ms", "lower"},
	{"phase.prefill_ms_mean", "sim_ms", "lower"},
	{"phase.decode_ms_mean", "sim_ms", "lower"},
	{"phase.reroute_ms_mean", "sim_ms", "lower"},
	{"obs.overhead_x", "x", "lower"},
	{"obs.spans_per_req", "count/req", "lower"},
	{"obs.trace_bytes_per_req", "B/req", "lower"},
	{"obs.write_chrome_s", "s", "lower"},
	{"obs.check_s", "s", "lower"},
	{"corpus.gen_s", "s", "lower"},
	{"embed.us_per_call", "us", "lower"},
	{"vecdb.add_us_per_vec", "us", "lower"},
	{"vecdb.dist_per_add", "count", "lower"},
	{"docstore.chunk_us_per_doc", "us", "lower"},
	{"vecdb.search_us_per_query", "us", "lower"},
	{"vecdb.dist_per_query", "count", "lower"},
	{"llm.complete_us_per_call", "us", "lower"},
	{"rag.answer_other_us", "us", "lower"},
	{"vecdb.recall_at_k", "ratio", "higher"},
	{"cpu.sim_share", "ratio", "lower"},
	{"cpu.serving_share", "ratio", "lower"},
	{"cpu.workload_share", "ratio", "lower"},
	{"cpu.metrics_share", "ratio", "lower"},
	{"cpu.gc_share", "ratio", "lower"},
	{"cpu.vecdb_share", "ratio", "lower"},
	{"cpu.embed_share", "ratio", "lower"},
	{"cpu.llm_share", "ratio", "lower"},
	{"cpu.docstore_share", "ratio", "lower"},
	{"cpu.token_share", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}

// phaseTally counts one phase's operations.
type phaseTally struct {
	name              string
	attempted, failed int
}

// result accumulates one run's accounting, digest and metrics.
type result struct {
	workload string
	opts     options
	phases   []*phaseTally
	failures []string
	digest   string
	values   map[string]float64
	lines    []string
	// tr records the benchmark's own spans around each call into a
	// layer, on the host clock in ms since the run started. It is nil
	// (and every span call a no-op) in untraced runs.
	tr    *obs.Tracer
	clock stopwatch
	// host converts an untraced run's host times into reference
	// seconds; nil in traced runs, whose host times stay unscaled.
	host *hostSpeed
}

func newResult(workload string, o options) *result {
	r := &result{workload: workload, opts: o, values: map[string]float64{}, clock: startWatch()}
	if o.trace {
		r.tr = obs.NewTracer()
	}
	return r
}

// begin opens a benchmark span on track under parent.
func (r *result) begin(track, name string, parent obs.SpanRef) obs.SpanRef {
	if r.tr == nil {
		return 0
	}
	return r.tr.Begin(r.clock.ms(), track, obs.CatLLM, name, parent)
}

// end closes a benchmark span.
func (r *result) end(ref obs.SpanRef) {
	if r.tr == nil {
		return
	}
	r.tr.End(r.clock.ms(), ref)
}

// writeTrace writes the benchmark's spans as a Chrome trace file.
func (r *result) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.WriteChrome(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func (r *result) phase(name string) *phaseTally {
	for _, p := range r.phases {
		if p.name == name {
			return p
		}
	}
	p := &phaseTally{name: name}
	r.phases = append(r.phases, p)
	return p
}

// ops records attempted operations of a phase, failed of which failed.
func (r *result) ops(phase string, attempted, failed int) {
	p := r.phase(phase)
	p.attempted += attempted
	p.failed += failed
}

// check records one correctness check of a phase; a failed check counts
// as a failed operation.
func (r *result) check(phase string, ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
		r.failures = append(r.failures, phase+": "+fmt.Sprintf(format, args...))
	}
	r.ops(phase, 1, failed)
}

// fail records an operation that returned an error.
func (r *result) fail(phase string, err error) {
	r.ops(phase, 1, 1)
	r.failures = append(r.failures, phase+": "+err.Error())
}

// set records a JSON metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// show prints a workload-specific metric name (serve.req_per_s,
// rag.accuracy, ...) in the human-readable report.
func (r *result) show(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("metric %-40s %.6g %s", name, v, unit))
}

// note adds a free-form line to the human-readable report.
func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}

// print checks that every metric of the run's mode was measured and is
// finite, then writes the human-readable report and, as the last line,
// the JSON result.
func (r *result) print(w io.Writer) error {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.name == "ok_frac" {
			continue // derived from the accounting below
		}
		v, ok := r.values[d.name]
		// A per-layer metric of a layer the workload does not run reads 0.
		r.check("report", ok || r.opts.trace, "metric %s not measured", d.name)
		r.check("report", !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is %v", d.name, v)
	}
	attempted, failed := r.totals()
	failedFrac := float64(failed) / float64(max(attempted, 1))
	r.set("ok_frac", 1-failedFrac)
	r.show("failed_frac", failedFrac, fmt.Sprintf("ratio (%d of %d operations)", failed, attempted))

	metrics := make([]string, 0, len(defs))
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		name, err := json.Marshal(d.name)
		if err != nil {
			return err
		}
		unit, err := json.Marshal(d.unit)
		if err != nil {
			return err
		}
		metrics = append(metrics, fmt.Sprintf("%s: {\"value\": %s, \"unit\": %s}", name, jsonNumber(v), unit))
	}

	bw := bufio.NewWriter(w)
	mode := "end-to-end (untraced)"
	if r.opts.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(bw, "perfbench %s seed=%d seconds=%g scale=%g: %s\n", r.workload, r.opts.seed, r.opts.seconds, r.opts.scale, mode)
	for _, p := range r.phases {
		fmt.Fprintf(bw, "phase %-10s attempted %d succeeded %d failed %d\n", p.name, p.attempted, p.attempted-p.failed, p.failed)
	}
	for _, f := range r.failures {
		fmt.Fprintf(bw, "FAILED %s\n", f)
	}
	fmt.Fprintf(bw, "digest %s\n", r.digest)
	for _, l := range r.lines {
		fmt.Fprintln(bw, l)
	}
	for _, d := range defs {
		fmt.Fprintf(bw, "json   %-40s %.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	fmt.Fprintf(bw, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
		failed == 0, attempted, failed, strings.Join(metrics, ", "))
	return bw.Flush()
}

// jsonNumber renders v with every digit it has.
func jsonNumber(v float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "0"
	}
	return string(b)
}
