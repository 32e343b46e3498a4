package serving

import (
	"fmt"
	"sort"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/workload"
)

// AdmissionPolicy selects what the router does with a request whose
// tenant has exhausted its token-bucket allowance. The zero value admits
// everything — the historical behavior, byte-identical to it.
type AdmissionPolicy int

// Supported admission policies.
const (
	// AdmitAll performs no admission control (historical behavior).
	AdmitAll AdmissionPolicy = iota
	// AdmitReject turns away requests the tenant's bucket cannot cover —
	// load shedding: the cluster never sees the excess.
	AdmitReject
	// AdmitQueue holds excess requests at the router until the tenant's
	// bucket refills (a reservation: the bucket goes negative and the
	// request is delivered when it would have reached zero), rejecting
	// only when the wait would exceed MaxQueueMS. TTFT includes the hold,
	// so over-rate tenants pay in latency instead of errors.
	AdmitQueue
)

// String names the policy.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "none"
	case AdmitReject:
		return "token-bucket"
	case AdmitQueue:
		return "token-bucket-queue"
	default:
		return fmt.Sprintf("admission(%d)", int(p))
	}
}

// AdmissionConfig parameterizes per-tenant token-bucket admission at the
// router. Cost is charged in trace tokens (prompt + output) — the same
// unit as instance load — so the bucket bounds each tenant's outstanding
// token demand, not just its request count. The zero value is AdmitAll.
type AdmissionConfig struct {
	Policy AdmissionPolicy
	// BurstTokens is a tenant's bucket capacity (its allowed burst).
	BurstTokens float64
	// RefillPerSec is a tenant's sustained token allowance per second.
	RefillPerSec float64
	// MaxQueueMS bounds AdmitQueue's hold; a request whose reservation
	// would wait longer is rejected without charging the bucket.
	// 0 means unbounded.
	MaxQueueMS float64
	// Weights scales BurstTokens and RefillPerSec per tenant ID; tenants
	// absent from the map (and the "" tenant of untenanted traces)
	// weigh 1. Weighted refill is what makes the bucket a fairness
	// mechanism rather than a flat cap.
	Weights map[string]float64
}

func (a AdmissionConfig) weight(tenant string) float64 {
	if w, ok := a.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// tenantBucket is one tenant's token-bucket state on the logical clock.
// level may go negative under AdmitQueue: the deficit is the reservation
// backlog, and a request admits at the instant level would return to 0.
type tenantBucket struct {
	level     float64
	lastMS    float64
	ratePerMS float64
	burst     float64
	queued    int // requests currently held at the router
}

func (b *tenantBucket) refill(now float64) {
	b.level += (now - b.lastMS) * b.ratePerMS
	if b.level > b.burst {
		b.level = b.burst
	}
	b.lastMS = now
}

// tenantTally accumulates one tenant's admission outcomes for the
// post-run TenantStats.
type tenantTally struct {
	admitted, rejected, delayed int
	delayMS                     metrics.Summary
}

// admitter applies an AdmissionConfig at the router's delivery point.
// Buckets are created lazily per tenant and only ever accessed by key
// (final stats iterate a sorted key list), so map order never reaches
// the simulation.
type admitter struct {
	cfg     AdmissionConfig
	buckets map[string]*tenantBucket
	tallies map[string]*tenantTally
	reg     *obs.Registry // nil-safe: untraced runs record nothing
}

func newAdmitter(cfg AdmissionConfig, reg *obs.Registry) *admitter {
	return &admitter{
		cfg:     cfg,
		buckets: make(map[string]*tenantBucket),
		tallies: make(map[string]*tenantTally),
		reg:     reg,
	}
}

func (a *admitter) bucket(tenant string) *tenantBucket {
	b, ok := a.buckets[tenant]
	if !ok {
		w := a.cfg.weight(tenant)
		b = &tenantBucket{
			level:     a.cfg.BurstTokens * w,
			ratePerMS: a.cfg.RefillPerSec * w / 1000,
			burst:     a.cfg.BurstTokens * w,
		}
		a.buckets[tenant] = b
	}
	return b
}

func (a *admitter) tally(tenant string) *tenantTally {
	t, ok := a.tallies[tenant]
	if !ok {
		t = &tenantTally{}
		a.tallies[tenant] = t
	}
	return t
}

// decide charges r against its tenant's bucket and returns how long the
// router must hold the request (0 = deliver now) and whether it is
// admitted at all. Rejections never charge the bucket.
func (a *admitter) decide(now float64, r *workload.Request) (delayMS float64, ok bool) {
	cost := float64(r.PromptTokens + r.OutputTokens)
	b := a.bucket(r.Tenant)
	b.refill(now)
	switch a.cfg.Policy {
	case AdmitReject:
		if b.level < cost {
			a.reject(now, r)
			return 0, false
		}
		b.level -= cost
	case AdmitQueue:
		wait := 0.0
		if deficit := cost - b.level; deficit > 0 {
			if b.ratePerMS <= 0 {
				a.reject(now, r)
				return 0, false
			}
			wait = deficit / b.ratePerMS
		}
		if a.cfg.MaxQueueMS > 0 && wait > a.cfg.MaxQueueMS {
			a.reject(now, r)
			return 0, false
		}
		b.level -= cost // reservation: negative level = queued backlog
		if wait > 0 {
			t := a.tally(r.Tenant)
			t.delayed++
			t.delayMS.Add(wait)
			b.queued++
			a.gaugeDepth(now, r.Tenant, b)
			return wait, true
		}
	}
	a.tally(r.Tenant).admitted++
	a.counter(now, r.Tenant, "admitted")
	return 0, true
}

// delivered completes a held request's admission accounting at its
// delayed delivery instant.
func (a *admitter) delivered(now float64, tenant string) {
	b := a.bucket(tenant)
	b.queued--
	a.gaugeDepth(now, tenant, b)
	a.tally(tenant).admitted++
	a.counter(now, tenant, "admitted")
}

func (a *admitter) reject(now float64, r *workload.Request) {
	a.tally(r.Tenant).rejected++
	a.counter(now, r.Tenant, "rejected")
}

func (a *admitter) counter(now float64, tenant, name string) {
	if a.reg == nil || tenant == "" {
		return
	}
	a.reg.Counter("tenant/"+tenant+"/"+name).Add(now, 1)
}

func (a *admitter) gaugeDepth(now float64, tenant string, b *tenantBucket) {
	if a.reg == nil || tenant == "" {
		return
	}
	a.reg.Gauge("tenant/"+tenant+"/queue_depth").Set(now, float64(b.queued))
}

// TenantStats summarizes one tenant's admission and service outcomes in
// a routed run.
type TenantStats struct {
	Tenant string
	// Admitted counts requests the admission controller let through
	// (every arrival when admission is off); AdmissionRejected counts
	// token-bucket turn-aways, Delayed the AdmitQueue holds, and
	// MeanDelayMS the mean hold across them.
	Admitted          int
	AdmissionRejected int
	Delayed           int
	MeanDelayMS       float64
	// Served counts finished sequences and OutputTokens their emitted
	// tokens — the per-tenant allocation a fairness index weighs.
	Served       int
	OutputTokens int
}

// tenantStats folds admission tallies (nil when admission was off) and
// served results into per-tenant rows, sorted by tenant ID. Untenanted
// requests ("") are excluded: a run with no Tenant fields reports none.
func tenantStats(adm *admitter, results []Result) []TenantStats {
	rows := make(map[string]*TenantStats)
	row := func(t string) *TenantStats {
		s, ok := rows[t]
		if !ok {
			s = &TenantStats{Tenant: t}
			rows[t] = s
		}
		return s
	}
	for i := range results {
		r := &results[i]
		if r.Req.Tenant == "" {
			continue
		}
		s := row(r.Req.Tenant)
		if r.Rejected {
			continue
		}
		s.Served++
		s.OutputTokens += r.Req.OutputTokens
	}
	if adm != nil {
		for t, tl := range adm.tallies {
			if t == "" {
				continue
			}
			s := row(t)
			s.Admitted = tl.admitted
			s.AdmissionRejected = tl.rejected
			s.Delayed = tl.delayed
			s.MeanDelayMS = tl.delayMS.Mean()
		}
	} else {
		for i := range results {
			r := &results[i]
			if r.Req.Tenant != "" {
				row(r.Req.Tenant).Admitted++
			}
		}
	}
	ids := make([]string, 0, len(rows))
	for t := range rows {
		ids = append(ids, t)
	}
	sort.Strings(ids)
	out := make([]TenantStats, len(ids))
	for i, t := range ids {
		out[i] = *rows[t]
	}
	return out
}
