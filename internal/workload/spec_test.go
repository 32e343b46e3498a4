package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// singleClientSpec is a one-client spec with the given arrival law —
// the property-test harness for the new processes.
func singleClientSpec(a ArrivalSpec, count int, rate float64) WorkloadSpec {
	return WorkloadSpec{
		Seed:       41,
		Count:      count,
		RatePerSec: rate,
		Clients: []ClientSpec{{
			ID: "c", TenantID: "t", RateFraction: 1, Arrival: a,
			Prompt: LengthSpec{Mean: 5, Sigma: 0.5, Min: 16, Max: 1024},
			Output: LengthSpec{Mean: 4, Sigma: 0.5, Min: 4, Max: 512},
		}},
	}
}

// TestSpecLegacyEquivalence pins the compatibility contract: the legacy
// TraceConfig re-expressed as a single-client spec reproduces the
// historical trace element for element (Generate itself routes through
// GenerateSpec, so this guards the wrapper against future divergence).
func TestSpecLegacyEquivalence(t *testing.T) {
	cfg := DefaultTrace(9, 300, 25)
	cfg.SharedPrefixes = 4
	cfg.SharedPrefixTokens = 256
	cfg.SharedPrefixProb = 0.5
	legacy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := GenerateSpec(cfg.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(viaSpec) {
		t.Fatalf("lengths differ: %d vs %d", len(legacy), len(viaSpec))
	}
	for i := range legacy {
		if legacy[i] != viaSpec[i] {
			t.Fatalf("request %d differs:\nlegacy: %+v\nspec:   %+v", i, legacy[i], viaSpec[i])
		}
	}
}

// TestSpecArrivalProperties checks, for each arrival process: arrivals
// are sorted, regeneration is byte-stable in the seed, and the
// empirical rate lands near the nominal one (Gamma gaps share the
// Poisson mean; the diurnal sine averages out over whole periods).
func TestSpecArrivalProperties(t *testing.T) {
	cases := []struct {
		name string
		a    ArrivalSpec
	}{
		{"poisson", ArrivalSpec{Process: Poisson}},
		{"gamma-burst", ArrivalSpec{Process: GammaBurst, Burstiness: 4}},
		{"diurnal-ramp", ArrivalSpec{Process: DiurnalRamp, Amplitude: 0.8, PeriodMS: 10000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := singleClientSpec(tc.a, 2000, 20)
			reqs, err := GenerateSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			prev := -1.0
			for i, r := range reqs {
				if r.ArrivalMS < prev {
					t.Fatalf("request %d: arrival %v before %v", i, r.ArrivalMS, prev)
				}
				prev = r.ArrivalMS
			}
			again, err := GenerateSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				if reqs[i] != again[i] {
					t.Fatalf("request %d not seed-stable", i)
				}
			}
			span := reqs[len(reqs)-1].ArrivalMS / 1000
			rate := float64(len(reqs)) / span
			if math.Abs(rate-20) > 4 {
				t.Errorf("empirical rate %v, want ~20", rate)
			}
		})
	}
}

// TestSpecBurstClumping verifies GammaBurst actually burstifies: the
// gap CV² should sit well above Poisson's 1.
func TestSpecBurstClumping(t *testing.T) {
	gapCV2 := func(a ArrivalSpec) float64 {
		reqs, err := GenerateSpec(singleClientSpec(a, 4000, 20))
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumSq float64
		prev := 0.0
		for _, r := range reqs {
			g := r.ArrivalMS - prev
			prev = r.ArrivalMS
			sum += g
			sumSq += g * g
		}
		n := float64(len(reqs))
		mean := sum / n
		return (sumSq/n - mean*mean) / (mean * mean)
	}
	poisson := gapCV2(ArrivalSpec{Process: Poisson})
	bursty := gapCV2(ArrivalSpec{Process: GammaBurst, Burstiness: 4})
	if bursty < 2*poisson {
		t.Errorf("gamma-burst CV² %.2f not clearly above poisson's %.2f", bursty, poisson)
	}
	if bursty < 3 || bursty > 5.5 {
		t.Errorf("gamma-burst CV² %.2f, want ~4", bursty)
	}
}

// TestSpecMergeDeterminism pins permutation invariance: reordering the
// client list changes nothing about the merged trace, because client
// RNG seeds hang off client IDs and the merge orders by contents.
func TestSpecMergeDeterminism(t *testing.T) {
	spec := DefaultMultiTenant(2501, 600, 90)
	base, err := GenerateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	perm := spec
	perm.Clients = []ClientSpec{spec.Clients[2], spec.Clients[0], spec.Clients[1]}
	swapped, err := GenerateSpec(perm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != swapped[i] {
			t.Fatalf("request %d differs under client permutation:\n%+v\n%+v", i, base[i], swapped[i])
		}
	}
}

// TestSpecCountSplit checks the largest-remainder split: counts sum to
// Count and track rate fractions to within one request.
func TestSpecCountSplit(t *testing.T) {
	spec := DefaultMultiTenant(1, 601, 60)
	reqs, err := GenerateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 601 {
		t.Fatalf("count = %d, want 601", len(reqs))
	}
	perClient := map[string]int{}
	for _, r := range reqs {
		perClient[r.Client]++
	}
	for _, c := range spec.Clients {
		exact := 601 * c.RateFraction
		if math.Abs(float64(perClient[c.ID])-exact) > 1 {
			t.Errorf("client %s got %d requests, want ~%.1f", c.ID, perClient[c.ID], exact)
		}
	}
	if got := Tenants(reqs); len(got) != 3 || got[0] != "bulk-a" || got[1] != "bulk-b" || got[2] != "chat" {
		t.Errorf("Tenants = %v", got)
	}
}

// TestSpecValidation exercises the rejection paths.
func TestSpecValidation(t *testing.T) {
	ok := singleClientSpec(ArrivalSpec{Process: Poisson}, 10, 5)
	bad := func(mutate func(*WorkloadSpec)) error {
		s := ok
		s.Clients = append([]ClientSpec(nil), ok.Clients...)
		mutate(&s)
		_, err := GenerateSpec(s)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*WorkloadSpec)
	}{
		{"zero count", func(s *WorkloadSpec) { s.Count = 0 }},
		{"zero rate", func(s *WorkloadSpec) { s.RatePerSec = 0 }},
		{"no clients", func(s *WorkloadSpec) { s.Clients = nil }},
		{"zero fraction", func(s *WorkloadSpec) { s.Clients[0].RateFraction = 0 }},
		{"gamma without burstiness", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: GammaBurst}
		}},
		{"diurnal amplitude 1", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: DiurnalRamp, Amplitude: 1, PeriodMS: 1000}
		}},
		{"diurnal without period", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: DiurnalRamp, Amplitude: 0.5}
		}},
		{"duplicate IDs", func(s *WorkloadSpec) {
			s.Clients = append(s.Clients, s.Clients[0])
		}},
		{"anonymous client in multi-client spec", func(s *WorkloadSpec) {
			extra := s.Clients[0]
			extra.ID = ""
			s.Clients = append(s.Clients, extra)
		}},
	}
	for _, tc := range cases {
		if err := bad(tc.mutate); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// referenceMerge is the historical GenerateSpec merge, kept as the
// reference the k-way merge is tested against: tag every request with
// its index in its client's stream, sort the concatenation on (arrival,
// client ID, index), and copy out.
func referenceMerge(streams [][]Request) []Request {
	type tagged struct {
		req Request
		seq int // index within the client's stream
	}
	var merged []tagged
	for _, stream := range streams {
		for seq, r := range stream {
			merged = append(merged, tagged{req: r, seq: seq})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		if a.req.ArrivalMS != b.req.ArrivalMS {
			return a.req.ArrivalMS < b.req.ArrivalMS
		}
		if a.req.Client != b.req.Client {
			return a.req.Client < b.req.Client
		}
		return a.seq < b.seq
	})
	out := make([]Request, len(merged))
	for i := range merged {
		out[i] = merged[i].req
	}
	return out
}

// referenceGenerateSpec is GenerateSpec with the historical merge.
func referenceGenerateSpec(spec WorkloadSpec) []Request {
	counts := spec.clientCounts()
	sum := 0.0
	for _, c := range spec.Clients {
		sum += c.RateFraction
	}
	streams := make([][]Request, len(spec.Clients))
	for ci := range spec.Clients {
		streams[ci] = generateClient(spec, ci, counts[ci], spec.RatePerSec*spec.Clients[ci].RateFraction/sum)
	}
	out := referenceMerge(streams)
	for i := range out {
		out[i].ID = fmt.Sprintf("r%05d", i)
	}
	return out
}

func sameTrace(t *testing.T, name string, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d differs from the reference merge:\ngot:  %+v\nwant: %+v", name, i, got[i], want[i])
		}
	}
}

// TestGenerateSpecMatchesReferenceSort pins the k-way merge (and the
// single-client in-place path) to the historical tagged sort. The
// "ties" spec uses extreme burstiness so that gamma gaps underflow to
// zero: its clients share arrival instants (every client starts with a
// run of arrivals at 0 ms) and repeat instants within their own stream.
func TestGenerateSpecMatchesReferenceSort(t *testing.T) {
	ties := DefaultMultiTenant(5, 900, 120)
	for i := range ties.Clients {
		ties.Clients[i].Arrival = ArrivalSpec{Process: GammaBurst, Burstiness: 1e6}
	}
	specs := map[string]WorkloadSpec{
		"multi-tenant":  DefaultMultiTenant(2501, 3000, 90),
		"multi-tenant2": DefaultMultiTenant(7, 1001, 400),
		"single-client": singleClientSpec(ArrivalSpec{Process: GammaBurst, Burstiness: 4}, 800, 30),
		"legacy":        DefaultTrace(9, 500, 25).Spec(),
		"ties":          ties,
	}
	for name, spec := range specs {
		got, err := GenerateSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceGenerateSpec(spec)
		sameTrace(t, name, got, want)
		if name == "ties" {
			crossTies := 0
			for i := 1; i < len(want); i++ {
				if want[i].ArrivalMS == want[i-1].ArrivalMS && want[i].Client != want[i-1].Client {
					crossTies++
				}
			}
			if crossTies == 0 {
				t.Fatalf("ties spec produced no equal arrival times across clients")
			}
		}
	}
}

// TestMergeStreamsEqualArrivals merges synthetic sorted streams whose
// arrivals sit on a coarse integer grid, so equal arrival times across
// and within clients are the common case.
func TestMergeStreamsEqualArrivals(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		streams := make([][]Request, k)
		total := 0
		for ci := range streams {
			n := rng.Intn(60)
			clock := 0.0
			for j := 0; j < n; j++ {
				clock += float64(rng.Intn(3))
				streams[ci] = append(streams[ci], Request{
					ArrivalMS: clock, Client: fmt.Sprintf("c%d", (ci*7)%k), PromptTokens: j,
				})
			}
			total += n
		}
		want := referenceMerge(streams)
		got := mergeStreams(append([][]Request(nil), streams...), total)
		sameTrace(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}
