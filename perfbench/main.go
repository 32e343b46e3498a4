// Command perfbench runs one named benchmark workload against the
// public APIs of the serving simulator (workload → serving → obs) or the
// RAG stack (corpus → embed → vecdb → rag → llm), checks its outputs,
// and prints one JSON result line.
//
// Usage:
//
//	perfbench -workload serve-faults -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with all
// instrumentation off; with -trace 1 it reports the per-layer metrics
// from a separate instrumented run. perfbench/run.py builds this
// program and runs it in a process of its own per workload, so each
// workload's peak RSS is its own; see perfbench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// scale multiplies the workload's input size; tests shrink it.
	scale float64
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{scale: 1}
	var trace int
	var probe bool
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "host seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	fs.StringVar(&o.outDir, "out", "", "directory for trace artifacts (none when empty)")
	fs.BoolVar(&probe, "probe", false, "run as the host-speed probe helper of an untraced run (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if probe {
		if err := serveProbes(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe: %v\n", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0")
		return 2
	}
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := newResult(w.name, o)
	if !o.trace {
		h, err := startHostSpeed()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: starting the host-speed probe: %v\n", err)
			return 1
		}
		defer h.stop()
		res.host = h
	}
	if err := w.run(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if o.trace && o.outDir != "" {
		path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
		if err := res.writeTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		res.note("bench trace written to %s", path)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading peak RSS: %v\n", err)
		return 1
	}
	res.set("peak_rss_mb", rss)
	res.show("peak_rss_mb", rss, "MB (VmHWM)")
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	run  func(o options, res *result) error
}

var workloads = []workloadDef{
	{"serve-faults", func(o options, res *result) error { return runServe(serveFaults(o.scale), o, res) }},
	{"serve-tenants", func(o options, res *result) error { return runServe(serveTenants(o.scale), o, res) }},
	{"rag-hnsw", func(o options, res *result) error { return runRAG(ragHNSW(o.scale), o, res) }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
