package serving

import "dataai/internal/resilient"

// Live session migration: a deterministic periodic scan (every
// migrateCheckMS of logical time) that drains long sequences off
// distressed instances — straggling, breaker-open, or carrying far
// more than their share of load — and ships them
// (checkpoint → transfer → resume) to the least-loaded healthy
// instance. Every decision reads only cluster state at the scan
// instant, so runs are byte-identical across repetitions and worker
// counts; ties always break to the lowest instance index or smallest
// request ID.

// removeRunning unlinks s from the running batch without freeing its KV
// accounting elsewhere — the migration path, which hands the sequence to
// another instance mid-decode. It reports whether s was found.
func (in *instance) removeRunning(s *seqState) bool {
	for i, r := range in.running {
		if r == s {
			copy(in.running[i:], in.running[i+1:])
			in.running[len(in.running)-1] = nil
			in.running = in.running[:len(in.running)-1]
			return true
		}
	}
	return false
}

// migrateScan runs one migration pass at now: each distressed donor may
// surrender at most one running sequence per scan (migration is a
// relief valve, not a rebalance), and only when a strictly less-loaded
// healthy receiver exists.
func (c *cluster) migrateScan(now float64) {
	n := len(c.insts)
	if n < 2 {
		return
	}
	// Speed is judged relative to the fastest surviving instance, not an
	// absolute slow == 1: a post-crash overload cascade slows *every*
	// survivor, and migration must still be able to drain a straggler
	// (slow 3×overload) onto a merely-overloaded peer (slow 1×overload).
	up, totalLoad := 0, 0
	minSlow := 0.0
	for _, in := range c.insts {
		if in.down {
			continue
		}
		up++
		totalLoad += in.queueLoad()
		if minSlow == 0 || in.slow < minSlow {
			minSlow = in.slow
		}
	}
	if up < 2 {
		return
	}
	mean := float64(totalLoad) / float64(up)
	hotAt := c.rec.cfg.hotLoadFactor() * mean
	for i, d := range c.insts {
		if d.down || len(d.running) == 0 {
			continue
		}
		load := d.queueLoad()
		hot := float64(load) > hotAt && load > 0
		// A donor counts as straggling only when it is at least twice as
		// slow as the best tier: a uniform overload multiplier (every
		// survivor at 1×ov) is not a reason to move — the move would pay
		// ship + restore without escaping anything.
		distressed := d.slow > 2*minSlow || c.breakers[i].StateAt(now) != resilient.BreakerClosed
		if !hot && !distressed {
			continue
		}
		// Receiver: up, in the fastest speed tier, breaker closed, least
		// loaded, lowest index on ties — and strictly better off than
		// the donor, or the move is churn.
		r := -1
		for j, cand := range c.insts {
			if j == i || cand.down || cand.slow > minSlow ||
				c.breakers[j].StateAt(now) != resilient.BreakerClosed {
				continue
			}
			if r < 0 || cand.queueLoad() < c.insts[r].queueLoad() {
				r = j
			}
		}
		if r < 0 || c.insts[r].queueLoad() >= load {
			continue
		}
		// Victim: the longest session — the running sequence with the
		// most remaining decode work (smallest request ID on ties).
		// Sequences close to finishing aren't worth the transfer.
		var v *seqState
		vLeft := 0
		for _, s := range d.running {
			left := s.req.OutputTokens - s.generated
			if left < c.rec.cfg.migrateMinTokens() {
				continue
			}
			if v == nil || left > vLeft || (left == vLeft && s.req.ID < v.req.ID) {
				v, vLeft = s, left
			}
		}
		if v == nil {
			continue
		}
		c.migrate(now, i, r, v)
	}
}

// migrate checkpoints v's full context, frees its device state on the
// donor, and schedules its arrival at the receiver after the ship
// delay. The sequence keeps its generated tokens — the client already
// has them — and resumes from the checkpoint at the destination,
// paying a restore transfer instead of a recompute.
func (c *cluster) migrate(now float64, from, to int, v *seqState) {
	d := c.insts[from]
	if !d.removeRunning(v) {
		return
	}
	d.load -= seqLoad(v)
	d.kv.Free(v.req.ID)
	ctx := v.req.PromptTokens + v.generated
	// Ship the checkpoint delta (context not yet on the host) plus the
	// full context over the interconnect.
	delta := c.rec.save(v.req.ID, ctx)
	shipMS := float64(ctx)*migrateMSPerToken + float64(delta)*ckptMSPerToken
	v.admitted = false
	v.preempted = false
	v.saved = 0
	v.prefillLeft = 0
	v.migrated = true
	c.migrations++
	d.tracePhase(now, v, "migrate")
	if c.trace != nil {
		c.trace.Instant(now, "router", "migrate")
		c.trace.Registry().Counter("router/reroute_migration").Add(now, 1)
		d.traceDepth(now)
	}
	target := c.insts[to]
	c.eng.At(now+shipMS, func(t float64) { target.arrive(t, v) })
}

// scheduleMigration chains the periodic migration scan on the engine,
// stopping (like the fault-window driver) once the trace is fully
// resolved.
func (c *cluster) scheduleMigration() {
	var scanAt func(k int)
	scanAt = func(k int) {
		c.eng.At(float64(k)*migrateCheckMS, func(now float64) {
			if c.pending == 0 {
				return
			}
			c.migrateScan(now)
			scanAt(k + 1)
		})
	}
	scanAt(1)
}
