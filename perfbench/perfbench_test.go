package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dataai/internal/embed"
)

// testScales shrink each workload to a second or less.
var testScales = map[string]float64{
	"serve-faults":  0.002,
	"serve-tenants": 0.1,
	"rag-hnsw":      0.02,
}

// TestMain lets the test binary stand in for the benchmark binary when
// an untraced run starts its host-speed probe helper (os.Executable
// -probe).
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runSmall runs one workload once at its test scale and returns the
// result after checking it recorded no failure.
func runSmall(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	o := options{workload: name, seed: seed, seconds: 1e-9, trace: trace, scale: testScales[name]}
	res := newResult(name, o)
	if !trace {
		h, err := startHostSpeed()
		if err != nil {
			t.Fatalf("starting the host-speed probe: %v", err)
		}
		defer func() {
			if err := h.stop(); err != nil {
				t.Errorf("stopping the host-speed probe: %v", err)
			}
		}()
		res.host = h
	}
	if err := w.run(o, res); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if len(res.failures) > 0 {
		t.Fatalf("%s seed %d failures: %v", name, seed, res.failures)
	}
	if !strings.HasPrefix(res.digest, "sha256:") {
		t.Fatalf("%s seed %d: no digest (%q)", name, seed, res.digest)
	}
	return res
}

// TestDigestFollowsSeed pins the output digest's contract: the same seed
// gives the same digest, another seed a different one.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmall(t, w.name, 11, false).digest
			b := runSmall(t, w.name, 11, false).digest
			c := runSmall(t, w.name, 12, false).digest
			if a != b {
				t.Errorf("seed 11 gave digests %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 11 and 12 gave the same digest %s", a)
			}
		})
	}
}

// TestResultLine checks the last line of a run's report: one JSON object
// with exactly the keys correct, attempted, failed and metrics, and
// every metric of the mode.
func TestResultLine(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runSmall(t, w.name, 5, trace)
			res.set("peak_rss_mb", 1)
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("%s trace=%t: last line %q: %v", w.name, trace, lines[len(lines)-1], err)
			}
			if out.Correct == nil || !*out.Correct || out.Attempted == nil || *out.Attempted < 1 || out.Failed == nil || *out.Failed != 0 {
				t.Errorf("%s trace=%t: bad accounting in %s", w.name, trace, lines[len(lines)-1])
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or with unit %q", w.name, trace, d.name, m.Unit)
				}
				if !trace && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, *m.Value)
				}
			}
		}
	}
}

// TestRegistryMatchesBenchmarkJSON holds BENCHMARK.json at the
// repository root in step with the metrics this program prints.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, program %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %v, program %v", i, m, d)
		}
	}
}

// TestProfileFold checks the profile decoder against a profile of work
// in a known package.
func TestProfileFold(t *testing.T) {
	e := embed.NewHashEmbedder(256)
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	profile, err := cpuProfile(func() error {
		sw := startWatch()
		for sw.seconds() < 0.5 {
			e.Embed(text)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := packageShares(profile)
	if err != nil {
		t.Fatal(err)
	}
	// Embed tokenizes its input, and the fold charges each sample to the
	// innermost package, so the loop's time splits between the two.
	if got := shares["embed"] + shares["token"]; got < 0.5 {
		t.Errorf("embed+token share %.3f of a loop calling embed.Embed, want > 0.5 (shares %v)", got, shares)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p, n := tailPercentile(xs)
	if p != 99 || n != 1000 || v != 990 {
		t.Errorf("tailPercentile(1..1000) = %v, p%v, n=%d; want 990, p99, 1000", v, p, n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
