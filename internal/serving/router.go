package serving

import (
	"fmt"
	"sort"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/resilient"
	"dataai/internal/sim"
	"dataai/internal/token"
	"dataai/internal/workload"
)

// RouterPolicy selects how a multi-instance front end spreads requests.
type RouterPolicy int

// Supported routing policies.
const (
	// RoundRobin rotates through instances, ignoring cache and health
	// state — the naive baseline.
	RoundRobin RouterPolicy = iota
	// CacheAware routes requests sharing a prefix or session to the
	// same instance, so its KV cache serves them — the KV-centric
	// scheduling idea of Mooncake [45]: cache reuse is worth more than
	// perfect load spread. Requests with no affinity go to the instance
	// with the least outstanding token load.
	CacheAware
	// BreakerAware scores instances by live load and cache affinity, but
	// feeds each instance's circuit-breaker state (resilient.Breaker,
	// driven by crash detections) into the score so the router steers
	// around tripped instances and trickles probes at half-open ones.
	BreakerAware
)

// String names the policy.
func (p RouterPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case CacheAware:
		return "cache-aware"
	case BreakerAware:
		return "breaker-aware"
	default:
		return fmt.Sprintf("router(%d)", int(p))
	}
}

// RoutedReport aggregates a routed multi-instance run.
type RoutedReport struct {
	Report
	// PrefixHits and PrefixMisses sum the per-instance prefix caches.
	PrefixHits   int
	PrefixMisses int
	// Rerouted counts sequences re-routed to another instance after a
	// crash dropped them (each hop counts once).
	Rerouted int
	// Crashes counts instance-crash windows the fault plan applied.
	Crashes int
	// Migrations counts live-migrated sequences (checkpoint → ship →
	// resume hops off distressed instances).
	Migrations int
	// ResumedFromCkpt counts re-admissions that restored host-side
	// checkpoint state instead of recomputing from token zero.
	ResumedFromCkpt int
	// WastedRecomputeTokens totals context tokens re-prefilled because
	// a crash (or migration shortfall) lost state an instance had
	// already computed — the recompute tax recovery policies shrink.
	WastedRecomputeTokens int
	// CkptWrites and CkptTokens count checkpoint captures and the
	// context tokens they shipped to host memory.
	CkptWrites int
	CkptTokens int
	// RecoveryMS summarizes crash-drop → re-admission latency per
	// dropped sequence.
	RecoveryMS metrics.Summary
	// PrefixCPUHits and PrefixDemotions sum the tiered prefix caches'
	// host-tier traffic (zero with the legacy unbounded caches).
	PrefixCPUHits   int
	PrefixDemotions int
	// AdmissionRejected counts requests the per-tenant token bucket
	// turned away at the router (a subset of Rejected);
	// AdmissionDelayed counts AdmitQueue holds.
	AdmissionRejected int
	AdmissionDelayed  int
	// Tenants summarizes per-tenant admission and service outcomes,
	// sorted by tenant ID (empty for untenanted traces).
	Tenants []TenantStats
	// Regret, when the run was priced by ReplayRegret, summarizes
	// per-decision counterfactual regret (nil otherwise).
	Regret *RegretSummary
}

// clusterTally tracks simultaneous KV occupancy across every instance of
// a routed run — the true cluster high-water mark, which summing
// per-instance peaks from unsynchronized runs used to overstate.
type clusterTally struct{ used, peak int }

// talliedKV wraps one instance's KVManager and mirrors its block deltas
// into the shared cluster tally.
type talliedKV struct {
	KVManager
	tally *clusterTally
}

func (t *talliedKV) settle(before int) {
	t.tally.used += t.KVManager.UsedBlocks() - before
	if t.tally.used > t.tally.peak {
		t.tally.peak = t.tally.used
	}
}

// Alloc implements KVManager.
func (t *talliedKV) Alloc(id string, tokens int) bool {
	before := t.KVManager.UsedBlocks()
	ok := t.KVManager.Alloc(id, tokens)
	t.settle(before)
	return ok
}

// Extend implements KVManager.
func (t *talliedKV) Extend(id string, newTotal int) bool {
	before := t.KVManager.UsedBlocks()
	ok := t.KVManager.Extend(id, newTotal)
	t.settle(before)
	return ok
}

// Free implements KVManager.
func (t *talliedKV) Free(id string) {
	before := t.KVManager.UsedBlocks()
	t.KVManager.Free(id)
	t.settle(before)
}

// Routing-score constants for BreakerAware: an open breaker pushes an
// instance past any plausible load, a half-open one costs a moderate
// token handicap (probes trickle back once the healthy instances carry
// real queues), and cache affinity halves the effective load.
const (
	openPenalty     = 1e9
	halfOpenPenalty = 2000
	affinityFactor  = 0.5
)

// excludedPenalty pushes the instance a re-routed sequence was just
// dropped by past every real score: it stays a scored candidate (so
// decisions record it and replays can force it — it ranks last) but
// never wins against any live instance, reproducing the historical
// skip exactly. 1e18 dwarfs openPenalty plus any achievable token load.
const excludedPenalty = 1e18

// cluster is a routed serving run in flight: n instances on one engine,
// a router making per-arrival decisions from live state, and optional
// fault windows.
type cluster struct {
	eng      *sim.Engine
	insts    []*instance
	prefixes []*PrefixCache
	breakers []*resilient.Breaker
	policy   RouterPolicy

	rr         int // RoundRobin rotation counter
	pending    int // requests arrived-or-scheduled and not yet resolved
	rerouted   int
	crashes    int
	migrations int
	results    []Result
	pool       seqPool

	// rec is the run's crash-recovery state (checkpoint store +
	// accounting); always non-nil for routed runs, inert when the
	// RecoveryConfig is zero.
	rec *recovery

	// adm is the run's per-tenant admission controller; nil when the
	// AdmissionConfig policy is AdmitAll (the historical path).
	adm *admitter

	// trace, when non-nil, records the cluster timeline; instances share
	// it through their ContinuousOpts.
	trace *obs.Tracer

	// scores is the router's per-decision scratch (one slot per
	// instance), reused across decisions so scoring allocates nothing
	// on the route path.
	scores []candScore
	// routeCalls counts route() invocations — the 1-based decision
	// sequence a ForcedChoice matches against, kept whether or not a
	// log records the decisions.
	routeCalls uint64
	// dlog, when non-nil, records every routing decision (see
	// ContinuousOpts.Decisions).
	dlog *obs.DecisionLog
	// force, when non-nil, overrides one decision (see
	// ContinuousOpts.Force).
	force *ForcedChoice
	// rankBuf is scratch for ranking candidates under forcing,
	// allocated on first use (forced replays only).
	rankBuf []int

	// dropped holds crash-dropped sequences awaiting their reroute, in
	// drop order. Each crash schedules one rerouteH event, the constant
	// faultDetectMS later, whose argument packs the crashed instance
	// and how many sequences it dropped; the events therefore fire in
	// crash order and each pops its own sequences off the FIFO's head.
	// A crash reroute allocates nothing.
	dropped  seqRing
	rerouteH sim.ArgHandler
}

// candScore is one instance's standing in a single routing decision:
// the raw signals alongside the policy's score. route fills the
// cluster's scratch slice, recordDecision copies it into the log.
type candScore struct {
	load     int
	affinity bool
	breaker  int // breaker state BreakerAware consulted, -1 otherwise
	down     bool
	excluded bool
	score    float64
}

// traceBreaker mirrors instance i's breaker state into its gauge
// (0 closed, 1 open, 2 half-open). StateAt is idempotent at a fixed time
// — every breaker mutator calls it first — so the extra read never
// changes routing behavior.
func (c *cluster) traceBreaker(now float64, i int) {
	if c.trace == nil {
		return
	}
	c.trace.Registry().Gauge(fmt.Sprintf("gpu%d/breaker_state", i)).
		Set(now, float64(c.breakers[i].StateAt(now)))
}

// affinity returns the instance a request's prefix or session hashes to,
// or -1 when it has neither.
func (c *cluster) affinity(r *workload.Request) int {
	n := len(c.insts)
	if r.PrefixID != "" {
		return int(token.Hash64(r.PrefixID) % uint64(n))
	}
	if r.Session != "" {
		return int(token.Hash64(r.Session) % uint64(n))
	}
	return -1
}

// route picks the instance for a request arriving now. exclude is the
// instance a re-routed sequence was just dropped by (-1 for fresh
// arrivals): sending it straight back would race its own recovery.
// held marks an arrival the admission controller delayed first.
//
// Every policy is expressed as a candidate score vector with the
// winner the strict-less argmin, so ties always break to the lowest
// instance index (TestRouterTieBreakAtEqualScores pins this). That
// single discipline
// — shared with obs.Decision.Ranked — is what lets a counterfactual
// replay force rank-k alternatives without ever disagreeing with live
// routing on ties.
func (c *cluster) route(now float64, r *workload.Request, exclude int, held bool) int {
	c.scoreInstances(now, r, exclude)
	chosen := 0
	for i := 1; i < len(c.scores); i++ {
		if c.scores[i].score < c.scores[chosen].score {
			chosen = i
		}
	}
	c.routeCalls++
	if c.force != nil && c.force.Decision == c.routeCalls {
		chosen = c.rankedInstance(c.force.Rank)
	}
	c.recordDecision(now, r, exclude, held, chosen)
	return chosen
}

// scoreInstances fills c.scores for one routing decision. Each policy's
// scoring reproduces its historical direct-pick behavior choice for
// choice:
//
//   - RoundRobin scores rotation distance from the current counter and
//     advances the counter exactly as the direct implementation did
//     (one step, plus one more when the first pick was excluded);
//   - CacheAware scores the affinity instance below any possible load
//     (-1) and everything else by live queue load;
//   - BreakerAware keeps its load × affinity × breaker-penalty formula
//     with identical float operation order.
//
// The excluded instance is scored past every real candidate with
// excludedPenalty rather than skipped (see that constant). BreakerAware
// deliberately does not consult the excluded instance's breaker:
// StateAt applies the lazy open→half-open transition, so an extra call
// the historical path never made would perturb breaker accounting. Its
// Breaker field records -1, unconsulted — as does every candidate's
// under the policies that never read breakers.
func (c *cluster) scoreInstances(now float64, r *workload.Request, exclude int) {
	n := len(c.insts)
	switch c.policy {
	case CacheAware:
		aff := c.affinity(r)
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			cs.score = float64(cs.load)
			if i == aff {
				cs.affinity = true
				cs.score = -1
			}
			if i == exclude && n > 1 {
				cs.excluded = true
				cs.score += excludedPenalty
			}
		}
	case BreakerAware:
		aff := c.affinity(r)
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			score := float64(cs.load)
			if i == aff {
				cs.affinity = true
				score *= affinityFactor
			}
			if i == exclude && n > 1 {
				cs.excluded = true
				score += excludedPenalty
			} else {
				st := c.breakers[i].StateAt(now)
				cs.breaker = int(st)
				switch st {
				case resilient.BreakerOpen:
					score += openPenalty
				case resilient.BreakerHalfOpen:
					score += halfOpenPenalty
				}
			}
			cs.score = score
		}
	default: // RoundRobin
		base := c.rr % n
		c.rr++
		if base == exclude && n > 1 {
			c.rr++
		}
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			cs.score = float64((i - base + n) % n)
			if i == exclude && n > 1 {
				cs.excluded = true
				cs.score += excludedPenalty
			}
		}
	}
}

// rankedInstance returns the instance at 1-based rank k of the current
// score vector: rank 1 is the argmin (the live choice), ties order by
// instance index, and k past the instance count clamps to the worst
// candidate. Called only on the forced decision of a replay.
func (c *cluster) rankedInstance(k int) int {
	n := len(c.scores)
	if c.rankBuf == nil {
		c.rankBuf = make([]int, n)
	}
	buf := c.rankBuf
	for i := range buf {
		buf[i] = i
	}
	sort.Slice(buf, func(a, b int) bool {
		if c.scores[buf[a]].score != c.scores[buf[b]].score {
			return c.scores[buf[a]].score < c.scores[buf[b]].score
		}
		return buf[a] < buf[b]
	})
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return buf[k-1]
}

// recordDecision copies the score vector into the decision log (no-op
// without one). chosen is the instance actually routed to — under
// forcing, the forced alternative.
func (c *cluster) recordDecision(now float64, r *workload.Request, exclude int, held bool, chosen int) {
	if c.dlog == nil {
		return
	}
	kind := obs.DecisionArrival
	if exclude >= 0 {
		kind = obs.DecisionReroute
	}
	cands := make([]obs.Candidate, len(c.scores))
	for i, cs := range c.scores {
		cands[i] = obs.Candidate{
			Instance: i, QueueLoad: cs.load, Affinity: cs.affinity,
			Breaker: cs.breaker, Down: cs.down, Excluded: cs.excluded,
			Score: cs.score,
		}
	}
	c.dlog.Record(obs.Decision{
		AtMS: now, ReqID: r.ID, Kind: kind, Held: held, Chosen: chosen, Candidates: cands,
	})
}

// reroute is the crash-reroute event: the router learns of a crash's
// losses a detection delay after it and re-routes each dropped sequence,
// in drop order, away from crashed instance arg>>32.
//
// One event per crash reroutes its arg&(1<<32-1) sequences back to
// back. That is exactly the firing order of one event per sequence: the
// crash scheduled those events consecutively (same time, consecutive
// seqs), so nothing could fire between them, and whatever a reroute
// schedules gets a later seq than all of them.
func (c *cluster) reroute(t float64, arg uint64) {
	i := int(arg >> 32)
	for k := arg & (1<<32 - 1); k > 0; k-- {
		s := c.dropped.PopFront()
		c.breakers[i].OnFailure(t)
		c.traceBreaker(t, i)
		c.rerouted++
		g := c.route(t, &s.req, i, false)
		if c.trace != nil {
			c.trace.Instant(t, "router", "reroute", c.rerouteAttrs(i, g)...)
			c.trace.Registry().Counter("router/reroute_crash").Add(t, 1)
		}
		c.insts[g].arrive(t, s)
		c.traceDecision(s, g)
	}
}

// traceDecision ties the queue span a routed delivery just opened to
// its decision-log entry: obs.Check matches the "decision" and "inst"
// attrs against the log. Only route() outcomes are annotated —
// migration hops call arrive directly and carry no decision — and only
// when both a tracer and a decision log are on, so decision-free
// traces keep their historical bytes.
func (c *cluster) traceDecision(s *seqState, chosen int) {
	if c.trace == nil || c.dlog == nil {
		return
	}
	c.trace.SpanAttrs(s.phase,
		obs.I(obs.DecisionSeqKey, int64(c.routeCalls)),
		obs.I(obs.DecisionInstKey, int64(chosen)))
}

// rerouteAttrs annotates the reroute instant with the hop when decision
// recording is on (attr-free otherwise, preserving historical bytes).
func (c *cluster) rerouteAttrs(from, to int) []obs.Attr {
	if c.dlog == nil {
		return nil
	}
	return []obs.Attr{obs.I("from", int64(from)), obs.I("to", int64(to))}
}

// RunRoutedFaults serves the trace on n instances behind an online
// router under a cluster fault plan. Every request is assigned at its
// arrival instant from the cluster's live state (queue load, breaker
// state, cache affinity), with all instances sharing one discrete-event
// clock. Every instance gets its own prefix cache (and session store
// when sessions appear in the trace); the routing policy decides which
// instance's cache a request can hit.
//
// Under the plan, instances crash and recover on seeded windows
// (dropping their in-flight sequences back through the router after a
// detection delay), straggler windows slow them down, and per-instance
// circuit breakers observe the failures — which the BreakerAware policy
// folds into its routing score. A nil plan injects nothing. Crashed
// sequences recompute from token zero; RunRoutedAdmission adds
// checkpointed recovery and admission control.
func RunRoutedFaults(gpu GPUConfig, reqs []workload.Request, n int, policy RouterPolicy, opts ContinuousOpts, plan *FaultPlan) (*RoutedReport, error) {
	rep, _, err := runRoutedCluster(gpu, reqs, n, policy, opts, plan, RecoveryConfig{}, AdmissionConfig{})
	return rep, err
}

// RunRoutedAdmission is RunRoutedFaults with a crash-recovery policy and
// per-tenant token-bucket admission control at the router.
//
// The recovery policy (see RecoveryConfig): periodic decode-state
// checkpoints let re-routed sequences resume from host memory instead of
// recomputing, live migration drains long sessions off distressed
// instances, and tiered prefix caches demote cold prefixes to a
// crash-surviving CPU tier under pressure.
//
// Admission: each tenant's trace-token demand (prompt + output) is
// charged against a weighted bucket, and requests the bucket cannot
// cover are rejected or held per adm.Policy before any instance sees
// them. A zero rec and a zero adm reproduce RunRoutedFaults byte for
// byte.
func RunRoutedAdmission(gpu GPUConfig, reqs []workload.Request, n int, policy RouterPolicy, opts ContinuousOpts, plan *FaultPlan, rec RecoveryConfig, adm AdmissionConfig) (*RoutedReport, error) {
	rep, _, err := runRoutedCluster(gpu, reqs, n, policy, opts, plan, rec, adm)
	return rep, err
}

// runRoutedCluster is the routed entry points' shared engine room. It
// returns the drained cluster alongside the report so invariant tests
// can inspect post-run allocator and pool state.
func runRoutedCluster(gpu GPUConfig, reqs []workload.Request, n int, policy RouterPolicy, opts ContinuousOpts, plan *FaultPlan, rec RecoveryConfig, adm AdmissionConfig) (*RoutedReport, *cluster, error) {
	if err := gpu.Validate(); err != nil {
		return nil, nil, err
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("%w: instances %d", ErrConfig, n)
	}
	ordered := arrivalOrder(reqs)

	hasSessions := false
	for i := range ordered {
		if ordered[i].Session != "" {
			hasSessions = true
			break
		}
	}

	c := &cluster{
		eng: sim.NewEngine(), policy: policy,
		insts:    make([]*instance, n),
		prefixes: make([]*PrefixCache, n),
		breakers: make([]*resilient.Breaker, n),
		pending:  len(ordered),
		results:  make([]Result, 0, len(ordered)),
		trace:    opts.Trace,
		rec:      newRecovery(rec),
		scores:   make([]candScore, n),
		dlog:     opts.Decisions,
		force:    opts.Force,
	}
	// Attach the log so Tracer.Check verifies decisions against the
	// timeline (nil-safe both ways).
	c.trace.AttachDecisions(c.dlog)
	if adm.Policy != AdmitAll {
		c.adm = newAdmitter(adm, opts.Trace.Registry())
	}
	tally := &clusterTally{}
	cooldown := 1000.0
	if plan != nil {
		cooldown = plan.crashDownMS()
	}
	for i := 0; i < n; i++ {
		i := i
		instOpts := opts
		instOpts.KV = &talliedKV{KVManager: NewPagedKV(gpu), tally: tally}
		if rec.PrefixGPUTokens > 0 {
			// Two-tier prefix cache: cold prefixes demote to a host tier
			// that survives this instance's crashes.
			c.prefixes[i] = NewTieredPrefixCache(PrefixCacheConfig{
				GPUCapacityTokens:  rec.PrefixGPUTokens,
				CPUCapacityTokens:  rec.PrefixCPUTokens,
				TransferMSPerToken: prefixXferMSPerToken,
				PrefillTokensPerMS: gpu.PrefillTokensPerMS,
			})
		} else {
			c.prefixes[i] = NewPrefixCache()
		}
		instOpts.Prefix = c.prefixes[i]
		if hasSessions {
			store, err := NewSessionStore(SessionStoreConfig{
				GPUCapacityTokens:  gpu.KVBlocks * gpu.BlockSize / 4,
				Policy:             LRU,
				PrefillTokensPerMS: gpu.PrefillTokensPerMS,
			})
			if err != nil {
				return nil, nil, err
			}
			instOpts.SessionCache = store
		}
		c.breakers[i] = resilient.NewBreaker(resilient.BreakerPolicy{FailureThreshold: 2, CooldownMS: cooldown})
		c.insts[i] = newInstance(i, gpu, instOpts, c.eng, &c.pool, func(now float64, r Result) {
			c.results = append(c.results, r)
			c.breakers[i].OnSuccess(now)
			c.traceBreaker(now, i)
			c.pending--
		})
		c.insts[i].rec = c.rec
		c.insts[i].onDrop = func(now float64, dropped []*seqState) {
			// The router learns of the loss a detection delay later and
			// re-routes the sequences away from the crashed instance.
			for _, s := range dropped {
				c.dropped.PushBack(s)
			}
			c.eng.AtArg(now+faultDetectMS, c.rerouteH, uint64(i)<<32|uint64(len(dropped)))
		}
	}
	c.rerouteH = c.reroute

	// One shared ArgHandler delivers every arrival; the event argument is
	// the request's index in the ordered trace. The arrivals are streamed
	// (sim.Engine.Stream): the queue holds the next arrival, not all n.
	capacityTokens := gpu.KVBlocks * gpu.BlockSize
	// deliverHeld lands a request the admission controller reserved a
	// refill window for; deliver runs first, at the arrival instant.
	deliverHeld := func(now float64, idx uint64) {
		r := &ordered[idx]
		c.adm.delivered(now, r.Tenant)
		g := c.route(now, r, -1, true)
		s := c.pool.get(r)
		c.insts[g].arrive(now, s)
		c.traceDecision(s, g)
	}
	deliver := func(now float64, idx uint64) {
		r := &ordered[idx]
		footprint := r.PromptTokens + r.OutputTokens
		if footprint > capacityTokens || footprint > gpu.MaxSeqLen {
			traceRejectArrival(c.trace, now, r)
			c.results = append(c.results, Result{Req: r, Rejected: true})
			c.pending--
			return
		}
		if c.adm != nil {
			delay, ok := c.adm.decide(now, r)
			if !ok {
				traceRejectArrival(c.trace, now, r)
				c.results = append(c.results, Result{Req: r, Rejected: true})
				c.pending--
				return
			}
			if delay > 0 {
				c.eng.AtArg(now+delay, deliverHeld, idx)
				return
			}
		}
		g := c.route(now, r, -1, false)
		s := c.pool.get(r)
		c.insts[g].arrive(now, s)
		c.traceDecision(s, g)
	}
	c.eng.Stream(len(ordered), func(i int) float64 { return ordered[i].ArrivalMS }, deliver)

	if plan != nil {
		var windowAt func(w int)
		windowAt = func(w int) {
			c.eng.At(float64(w)*faultWindowMS, func(now float64) {
				if c.pending == 0 {
					return // trace fully resolved: stop driving windows
				}
				for i, in := range c.insts {
					if in.down {
						continue
					}
					in.setSlowdown(plan.slowdownAt(i, w))
					if plan.crashAt(i, w) {
						c.crashes++
						if c.trace != nil {
							c.trace.Registry().Counter("router/crashes").Add(now, 1)
						}
						in.crash(now)
						c.eng.At(now+faultDetectMS, func(t float64) {
							// Health check: the detector notices the dead
							// instance even when nothing was in flight.
							c.breakers[i].OnFailure(t)
							c.traceBreaker(t, i)
						})
						c.eng.At(now+plan.crashDownMS(), func(t float64) {
							in.setSlowdown(1)
							in.recoverAt(t)
						})
					}
				}
				if plan.OverloadAlpha > 0 {
					// Post-crash cascade: survivors absorbing the down
					// instances' rerouted load run slower for the window,
					// on top of any straggler draw.
					downCount := 0
					for _, in := range c.insts {
						if in.down {
							downCount++
						}
					}
					if ov := plan.overloadFactor(downCount, len(c.insts)); ov > 1 {
						for i, in := range c.insts {
							if in.down {
								continue
							}
							in.setSlowdown(plan.slowdownAt(i, w) * ov)
						}
					}
				}
				windowAt(w + 1)
			})
		}
		windowAt(0)
	}
	if rec.Migrate {
		c.scheduleMigration()
	}

	c.eng.Run()

	var hits, misses, cpuHits, demotions, preemptions int
	for i, in := range c.insts {
		for in.waiting.Len() > 0 {
			// Never admittable: report rejected, reclaim the state —
			// the Result points at the trace, not at the pooled
			// sequence, so pooling is safe — and drop any host-side
			// checkpoint the sequence left behind.
			s := in.waiting.PopFront()
			in.load -= seqLoad(s)
			in.traceReject(c.eng.Now(), s)
			c.results = append(c.results, Result{Req: s.src, Rejected: true})
			c.rec.drop(s.req.ID)
			c.pool.put(s)
		}
		h, m := c.prefixes[i].Stats()
		hits += h
		misses += m
		ch, d := c.prefixes[i].TierStats()
		cpuHits += ch
		demotions += d
		preemptions += in.preemptions
	}
	out := &RoutedReport{Report: *buildReport(c.results)}
	out.PeakKVBlocks = tally.peak
	out.Preemptions = preemptions
	out.PrefixHits = hits
	out.PrefixMisses = misses
	out.Rerouted = c.rerouted
	out.Crashes = c.crashes
	out.Migrations = c.migrations
	out.ResumedFromCkpt = c.rec.resumes
	out.WastedRecomputeTokens = c.rec.wasted
	out.CkptWrites = c.rec.writes
	out.CkptTokens = c.rec.writeTokens
	out.RecoveryMS = c.rec.recoveryMS
	out.PrefixCPUHits = cpuHits
	out.PrefixDemotions = demotions
	out.Tenants = tenantStats(c.adm, c.results)
	if c.adm != nil {
		for _, t := range out.Tenants {
			out.AdmissionRejected += t.AdmissionRejected
			out.AdmissionDelayed += t.Delayed
		}
		if tl, ok := c.adm.tallies[""]; ok {
			out.AdmissionRejected += tl.rejected
			out.AdmissionDelayed += tl.delayed
		}
	}
	return out, c, nil
}
