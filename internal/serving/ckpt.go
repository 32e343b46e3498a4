package serving

import "dataai/internal/metrics"

// Crash-survivable serving: periodic decode-state checkpoints and the
// host-side store they write to. A routed cluster without a recovery
// policy loses every in-flight sequence's KV to a crash and re-prefills
// it from token zero wherever the router re-lands it; with
// checkpointing, each instance ships every running sequence's context
// delta to host memory every CkptEveryIters iterations (the write is
// charged on the simulated clock, riding the iteration it happens in),
// and a re-routed sequence resumes from its newest checkpoint, paying
// only a restore transfer plus the tokens generated since the capture.
// The store is keyed by request ID and lives outside any instance, so
// it survives the crash that killed the GPU-resident state — the
// serving-side sibling of internal/training's checkpoint/recovery
// model. Everything here is a pure function of the logical clock: no
// wall time, no math/rand.

// RecoveryConfig selects a routed run's crash-recovery policy. The zero
// value disables all of it, making RunRoutedAdmission (with a zero
// AdmissionConfig) byte-identical to RunRoutedFaults: no checkpoints, no
// migration, unbounded single-tier prefix caches. The transfer costs
// are fixed: see ckptMSPerToken, restoreMSPerToken, migrateCheckMS,
// migrateMSPerToken and prefixXferMSPerToken.
type RecoveryConfig struct {
	// CkptEveryIters takes a decode-state checkpoint of every running
	// sequence each K mixed iterations (0 disables checkpointing).
	CkptEveryIters int

	// Migrate enables live session migration: a deterministic periodic
	// scan drains the longest running sequence off hot, straggling, or
	// breaker-open instances and ships it (checkpoint → transfer →
	// resume) to the least-loaded healthy one.
	Migrate bool
	// HotLoadFactor marks an instance a migration donor when its
	// outstanding token load exceeds this multiple of the healthy-mean
	// load (default 2).
	HotLoadFactor float64
	// MigrateMinTokens is the minimum remaining decode work worth
	// shipping (default 16): sequences about to finish stay put.
	MigrateMinTokens int

	// PrefixGPUTokens > 0 gives each instance a *tiered* prefix cache:
	// a GPU tier of this capacity backed by PrefixCPUTokens of host
	// memory. Under pressure, cold prefixes are demoted to the CPU tier
	// instead of evicted; CPU hits promote back at prefixXferMSPerToken
	// fetch cost, and the CPU tier survives instance crashes. 0 keeps
	// the legacy unbounded single-tier cache.
	PrefixGPUTokens int
	PrefixCPUTokens int
}

const (
	// ckptMSPerToken is the GPU→host write cost per context token newly
	// covered by a checkpoint, charged on the iteration that carries the
	// write. Host-side DMA: straggler slowdowns do not scale it.
	ckptMSPerToken float64 = 0.002
	// restoreMSPerToken is the host→GPU transfer cost when a re-routed
	// sequence resumes from its checkpoint, priced in prefill-token
	// equivalents exactly like the session store's transfer model.
	restoreMSPerToken float64 = 0.005
	// migrateCheckMS is the migration scan period.
	migrateCheckMS float64 = 500
	// migrateMSPerToken is the instance→instance ship cost per context
	// token; the sequence is in transit for that long before
	// re-queueing at its destination.
	migrateMSPerToken float64 = 0.005
	// prefixXferMSPerToken is the CPU→GPU fetch cost of a tiered prefix
	// cache's CPU-tier hit.
	prefixXferMSPerToken float64 = 0.005
)

func (rc RecoveryConfig) hotLoadFactor() float64 {
	if rc.HotLoadFactor > 0 {
		return rc.HotLoadFactor
	}
	return 2
}

func (rc RecoveryConfig) migrateMinTokens() int {
	if rc.MigrateMinTokens > 0 {
		return rc.MigrateMinTokens
	}
	return 16
}

// recovery is one routed run's crash-recovery state: the host-side
// checkpoint store (crash-survivable by construction — it lives with
// the router, not on any instance) and the run's recovery accounting.
// Engines are single-threaded, so no locking.
type recovery struct {
	cfg RecoveryConfig
	// ctx maps request ID → context tokens covered by the newest
	// checkpoint (prompt + generated at capture time). Entries are
	// dropped when the request resolves.
	ctx map[string]int

	writes      int // checkpoint captures that covered new tokens
	writeTokens int // context tokens shipped to host memory
	resumes     int // re-admissions that restored from a checkpoint
	// wasted counts context tokens re-prefilled because a crash (or a
	// migration shortfall) lost state an instance had already computed
	// — the recompute tax a recovery policy exists to shrink.
	wasted int
	// recoveryMS samples crash-drop → re-admission latency per dropped
	// sequence: detection delay + routing + queueing + any restore wait.
	recoveryMS metrics.Summary
}

func newRecovery(cfg RecoveryConfig) *recovery {
	return &recovery{cfg: cfg, ctx: make(map[string]int)}
}

// covered reports the context tokens the newest checkpoint of id holds
// (0 when none exists).
func (rc *recovery) covered(id string) int {
	if rc == nil {
		return 0
	}
	return rc.ctx[id]
}

// save records a checkpoint of id at ctx context tokens and returns the
// newly covered delta — the tokens whose transfer the caller must
// charge. A capture that is no further than the stored one is free.
func (rc *recovery) save(id string, ctx int) int {
	prev := rc.ctx[id]
	if ctx <= prev {
		return 0
	}
	rc.ctx[id] = ctx
	rc.writes++
	rc.writeTokens += ctx - prev
	return ctx - prev
}

// drop forgets id's checkpoint — the request resolved (finished or was
// rejected at drain) and its host-side state is reclaimed.
func (rc *recovery) drop(id string) {
	if rc == nil {
		return
	}
	delete(rc.ctx, id)
}
