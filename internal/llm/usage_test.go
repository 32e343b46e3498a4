package llm

import (
	"math/big"
	"math/rand"
	"testing"
)

// roundedExact is the reference for exactSum: the sum in a big.Float
// wide enough to be exact for these inputs, rounded once to float64.
func roundedExact(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func TestExactSumIsCorrectlyRoundedInAnyOrder(t *testing.T) {
	cases := [][]float64{
		{},
		{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		{1e-16, 1, 1e16},
		{1e100, 1, -1e100},
		{-0.5, 0.25, 1e-300, 3},
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 30; k++ {
		// Costs and latencies: many small positive values of mixed size.
		xs := make([]float64, 50+rng.Intn(200))
		for i := range xs {
			xs[i] = rng.Float64() * float64(int64(1)<<rng.Intn(20)) / 1e5
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		want := roundedExact(xs)
		for trial := 0; trial < 5; trial++ {
			var s exactSum
			for _, i := range rng.Perm(len(xs)) {
				s.add(xs[i])
			}
			if got := s.value(); got != want {
				t.Fatalf("case %d order %d: sum %v, correctly rounded %v", ci, trial, got, want)
			}
		}
	}
}

// TestUsageIsOrderIndependent records the same responses in different
// orders, as concurrent workers do, and needs bit-identical tallies.
func TestUsageIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	resps := make([]Response, 300)
	for i := range resps {
		resps[i] = Response{
			PromptTokens: rng.Intn(500), CompletionTokens: rng.Intn(50),
			CostUSD: rng.Float64() / 1e3, LatencyMS: rng.Float64() * 400,
		}
	}
	var want Usage
	for trial := 0; trial < 10; trial++ {
		var m usageMeter
		for _, i := range rng.Perm(len(resps)) {
			m.record(resps[i])
		}
		got := m.snapshot()
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("order %d: usage %+v, first order %+v", trial, got, want)
		}
	}
	var m usageMeter
	m.record(resps[0])
	m.reset()
	if u := m.snapshot(); u != (Usage{}) {
		t.Fatalf("usage after reset = %+v", u)
	}
}
