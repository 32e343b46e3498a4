package faults

import (
	"fmt"

	"dataai/internal/token"
)

// This file holds the seeded-draw and fault-window helpers shared by
// every fault model in the repository: the call-path Injector in this
// package and the serving cluster's FaultPlan (internal/serving) both
// derive their faults from Uniform, so a fault is always a pure function
// of (seed, identity key) — never of wall time or execution order.

// Uniform maps (seed, key) to a deterministic uniform in [0,1). It is
// the single randomness primitive of the fault layer: equal inputs give
// equal draws on every run, platform, and worker count.
func Uniform(seed uint64, key string) float64 {
	h := token.Hash64Seed(key, seed)
	return float64(h>>11) / float64(1<<53)
}

// WindowKey names one (kind, instance, window) cell for Uniform, giving
// cluster fault plans a shared, collision-free key scheme.
func WindowKey(kind string, instance, window int) string {
	return fmt.Sprintf("%s\x00%d\x00%d", kind, instance, window)
}
