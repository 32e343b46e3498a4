package experiments

import (
	"testing"

	"dataai/internal/serving"
)

// TestE24CheckpointMigrateDominates pins the E24 acceptance claim: under
// the correlated-domain plans (rack and cascade), checkpoint+migrate
// strictly beats reroute-only on BOTH goodput and wasted recompute
// tokens. The simulation is deterministic, so these are exact
// inequalities, not statistical ones — if a change flips either, the
// recovery story regressed.
func TestE24CheckpointMigrateDominates(t *testing.T) {
	reqs, err := recoveryWorkload()
	if err != nil {
		t.Fatal(err)
	}
	gpu := serving.DefaultGPU()
	const ttftSLO, tbtSLO = 1500, 25
	run := func(plan, arm string) *serving.RoutedReport {
		t.Helper()
		rep, err := serving.RunRoutedAdmission(gpu, reqs, 8, serving.BreakerAware,
			serving.ContinuousOpts{ChunkTokens: 256}, e24Plan(plan), e24Recovery(arm), serving.AdmissionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, plan := range []string{"rack", "cascade"} {
		base := run(plan, "reroute-only")
		full := run(plan, "ckpt+migrate")
		if base.Crashes == 0 {
			t.Fatalf("%s plan injected no crashes", plan)
		}
		if full.ResumedFromCkpt == 0 || full.Migrations == 0 {
			t.Fatalf("%s ckpt+migrate arm inert: %d resumes, %d migrations",
				plan, full.ResumedFromCkpt, full.Migrations)
		}
		bg, fg := base.Goodput(ttftSLO, tbtSLO), full.Goodput(ttftSLO, tbtSLO)
		if fg <= bg {
			t.Errorf("%s plan: ckpt+migrate goodput %.4f does not beat reroute-only %.4f", plan, fg, bg)
		}
		if full.WastedRecomputeTokens >= base.WastedRecomputeTokens {
			t.Errorf("%s plan: ckpt+migrate wasted %d tokens, reroute-only %d — no recompute saving",
				plan, full.WastedRecomputeTokens, base.WastedRecomputeTokens)
		}
	}
}

// TestE24WorkerCountInvariance pins the sweep determinism contract: the
// E24 grid rendered on one sweep worker is byte-identical to the same
// grid rendered on eight — cell results commit into per-cell slots, so
// scheduling cannot leak into the output.
func TestE24WorkerCountInvariance(t *testing.T) {
	serial, err := runE24Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runE24Workers(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Tables) != len(parallel.Tables) {
		t.Fatalf("table count differs: %d vs %d", len(serial.Tables), len(parallel.Tables))
	}
	for i := range serial.Tables {
		a, b := serial.Tables[i].String(), parallel.Tables[i].String()
		if a != b {
			t.Errorf("table %d differs between 1 and 8 sweep workers:\n--- serial ---\n%s\n--- parallel ---\n%s", i, a, b)
		}
	}
}
