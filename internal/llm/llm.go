// Package llm provides the simulated large language model client that every
// LLM4Data technique in this repository orchestrates.
//
// The paper's techniques (§2.2) treat the LLM as a callable oracle with four
// problematic properties — imperfect accuracy, per-call cost, latency, and
// hallucination — and every surveyed system (RAG, semantic operators,
// Evaporate, SYMPHONY, ...) is a strategy for managing those properties.
// This package substitutes a deterministic simulator that exhibits exactly
// those properties:
//
//   - A knowledge base stands in for "what the model memorized during
//     pretraining". Questions about facts outside it are answered
//     "unknown" or, with Model.HallucinationRate probability, fabricated.
//   - Judgments, extractions, and grounded answers are wrong with
//     Model.ErrRate probability. Wrongness is a deterministic function of
//     (prompt, model, seed), so identical calls return identical results —
//     which is what makes response caching semantically sound.
//   - Every call is metered: prompt/completion tokens, simulated latency
//     from a prefill+decode cost model, and dollar cost. No wall-clock
//     time is consumed; latency is returned, not slept.
//
// Two model presets, SmallModel and LargeModel, differ in cost and error
// rate, enabling the model-cascade optimization that LOTUS/PALIMPZEST-style
// systems use (experiment E2).
package llm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dataai/internal/token"
)

// Errors returned by clients.
var (
	// ErrBadPrompt indicates a prompt the model cannot interpret.
	ErrBadPrompt = errors.New("llm: malformed prompt")
	// ErrContextOverflow indicates a prompt exceeding the context window.
	ErrContextOverflow = errors.New("llm: prompt exceeds context window")
)

// Model describes a simulated model tier.
type Model struct {
	// Name distinguishes tiers; it is mixed into the decision hash so
	// different models disagree on the margin.
	Name string
	// ErrRate is the probability a judgment/extraction/grounded answer
	// is wrong.
	ErrRate float64
	// HallucinationRate is the probability of fabricating an answer when
	// the truth is not available (vs. admitting "unknown").
	HallucinationRate float64
	// ContextWindow is the maximum prompt size in tokens.
	ContextWindow int
	// PromptCostPer1K / CompletionCostPer1K are dollar costs per 1000
	// tokens, mirroring API pricing structure.
	PromptCostPer1K     float64
	CompletionCostPer1K float64
	// PrefillTokensPerMS / DecodeTokensPerMS set the latency model:
	// latency = promptTokens/prefillRate + completionTokens/decodeRate.
	PrefillTokensPerMS float64
	DecodeTokensPerMS  float64
}

// LargeModel returns a preset mirroring a frontier API model: accurate and
// expensive.
func LargeModel() Model {
	return Model{
		Name:                "large",
		ErrRate:             0.02,
		HallucinationRate:   0.3,
		ContextWindow:       8192,
		PromptCostPer1K:     0.01,
		CompletionCostPer1K: 0.03,
		PrefillTokensPerMS:  20,
		DecodeTokensPerMS:   0.05,
	}
}

// SmallModel returns a preset mirroring a cheap proxy model: an order of
// magnitude cheaper and several times less accurate — the cascade's first
// tier.
func SmallModel() Model {
	return Model{
		Name:                "small",
		ErrRate:             0.15,
		HallucinationRate:   0.5,
		ContextWindow:       4096,
		PromptCostPer1K:     0.0005,
		CompletionCostPer1K: 0.0015,
		PrefillTokensPerMS:  80,
		DecodeTokensPerMS:   0.4,
	}
}

// Request is one completion call.
type Request struct {
	Prompt string
	// MaxTokens caps the completion length; 0 means the model default.
	MaxTokens int
}

// Response is the result of a completion call.
type Response struct {
	Text string
	// Confidence in [0,1); correlates with correctness but noisily, as
	// real calibrated-confidence signals do. Cascades escalate on it.
	Confidence float64
	// PromptTokens and CompletionTokens are the metered sizes.
	PromptTokens     int
	CompletionTokens int
	// LatencyMS is the simulated latency of this call.
	LatencyMS float64
	// CostUSD is the simulated dollar cost of this call.
	CostUSD float64
	// Cached reports whether the response was served from a cache
	// without invoking the model.
	Cached bool
	// Degraded reports that a resilience policy produced this response
	// after the primary path failed — a fallback model answered, or the
	// failure was converted into an explicit refusal so the rest of the
	// batch could proceed. Callers use it to separate "the model said
	// unknown" from "the serving path gave up".
	Degraded bool
}

// Client is anything that can complete prompts: the simulator, a cache
// wrapper, or a cascade router.
type Client interface {
	Complete(req Request) (Response, error)
}

// Usage is a running tally of client consumption.
type Usage struct {
	Calls            int64
	PromptTokens     int64
	CompletionTokens int64
	CostUSD          float64
	LatencyMS        float64
}

// usageMeter is the shared accounting primitive. Concurrent workers
// record in whatever order they finish, so the float tallies (cost and
// latency) are kept as exact sums and rounded once per snapshot: the
// snapshot is the correctly rounded total whatever the record order,
// where plain float addition would differ in the last bits between runs.
type usageMeter struct {
	mu        sync.Mutex
	u         Usage
	cost, lat exactSum
}

func (m *usageMeter) record(r Response) {
	m.mu.Lock()
	m.u.Calls++
	m.u.PromptTokens += int64(r.PromptTokens)
	m.u.CompletionTokens += int64(r.CompletionTokens)
	m.cost.add(r.CostUSD)
	m.lat.add(r.LatencyMS)
	m.mu.Unlock()
}

func (m *usageMeter) snapshot() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.u
	u.CostUSD = m.cost.value()
	u.LatencyMS = m.lat.value()
	return u
}

func (m *usageMeter) reset() {
	m.mu.Lock()
	m.u = Usage{}
	m.cost, m.lat = exactSum{}, exactSum{}
	m.mu.Unlock()
}

// exactSum accumulates float64s without rounding error: partials holds
// non-overlapping components, in increasing magnitude, whose exact sum
// is the exact sum of everything added (Shewchuk's algorithm, as in
// Python's math.fsum). The partials stay few for sums of like-signed,
// like-sized values such as costs and latencies.
type exactSum struct{ partials []float64 }

func (s *exactSum) add(x float64) {
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	s.partials = s.partials[:i]
	if x != 0 {
		s.partials = append(s.partials, x)
	}
}

// value is the exact sum rounded once to the nearest float64 (ties to
// even), which makes it independent of the order of the adds.
func (s *exactSum) value() float64 {
	p := s.partials
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi := p[n]
	lo := 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// Round half to even correctly: when the rounding above was a tie
	// and the next partial pushes past it, round away from hi.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := float64(lo * 2) // the conversion keeps hi + lo*2 from fusing
		x := hi + y
		//lint:ignore floateq error-free transformation: the test is whether hi + 2*lo was exact, which only an exact compare can tell
		if y == x-hi {
			hi = x
		}
	}
	return hi
}

// price computes a call's dollar cost under model m.
func price(m Model, promptTokens, completionTokens int) float64 {
	return float64(promptTokens)/1000*m.PromptCostPer1K +
		float64(completionTokens)/1000*m.CompletionCostPer1K
}

// latency computes a call's simulated latency under model m.
func latency(m Model, promptTokens, completionTokens int) float64 {
	var l float64
	if m.PrefillTokensPerMS > 0 {
		l += float64(promptTokens) / m.PrefillTokensPerMS
	}
	if m.DecodeTokensPerMS > 0 {
		l += float64(completionTokens) / m.DecodeTokensPerMS
	}
	return l
}

// decision returns a deterministic uniform value in [0,1) for a
// (prompt, model, seed, salt) tuple. It drives every stochastic choice the
// simulator makes, so repeated identical calls agree.
func decision(prompt, modelName string, seed uint64, salt string) float64 {
	h := token.Hash64Seed(prompt+"\x00"+modelName+"\x00"+salt, seed)
	return float64(h>>11) / float64(1<<53)
}

// fabricate synthesizes a plausible-but-wrong value for hallucinations,
// deterministic per prompt.
func fabricate(prompt string, seed uint64) string {
	syllables := []string{"an", "or", "el", "im", "os", "ur", "et", "ax", "on", "ir"}
	h := token.Hash64Seed(prompt, seed^0xfab)
	n := 2 + int(h%3)
	out := ""
	for i := 0; i < n; i++ {
		out += syllables[(h>>uint(8*i))%uint64(len(syllables))]
	}
	return out
}

func fmtErrBadPrompt(detail string) error {
	return fmt.Errorf("%w: %s", ErrBadPrompt, detail)
}
