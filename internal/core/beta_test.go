package core_test

import (
	"errors"
	"math"
	"testing"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
)

// TestEveryEntryPointRejectsBadBeta passes NaN, 0, 1 and ±Inf to every
// entry point that takes a β in (0, 1) — core's seven and the apps' five —
// and wants core.ErrBeta from each, before any work. NaN fails every
// comparison, so a check written as beta <= 0 || beta >= 1 lets it through.
func TestEveryEntryPointRejectsBadBeta(t *testing.T) {
	g := graph.Grid2D(6, 6)
	wg := graph.RandomWeights(g, 1, 4, 1)
	entries := []struct {
		name string
		run  func(beta float64) error
	}{
		{"core.Partition", func(b float64) error { _, err := core.Partition(g, b, core.Options{}); return err }},
		{"core.PartitionSequential", func(b float64) error { _, err := core.PartitionSequential(g, b, core.Options{}); return err }},
		{"core.PartitionExact", func(b float64) error { _, err := core.PartitionExact(g, b, core.Options{}); return err }},
		{"core.PartitionIterativeCtx", func(b float64) error { _, err := core.PartitionIterativeCtx(nil, g, b, 1, 0); return err }},
		{"core.BallGrowingCtx", func(b float64) error { _, err := core.BallGrowingCtx(nil, g, b, 1); return err }},
		{"core.PartitionWeighted", func(b float64) error { _, err := core.PartitionWeighted(wg, b, core.Options{}); return err }},
		{"core.PartitionWeightedParallel", func(b float64) error {
			_, err := core.PartitionWeightedParallel(wg, b, 1, core.Options{})
			return err
		}},
		{"connectivity.ComponentsPoolCtx", func(b float64) error {
			_, err := connectivity.ComponentsPoolCtx(nil, nil, g, b, 1, 0, core.DirectionAuto)
			return err
		}},
		{"blocks.BuildIncrementalPoolCtx", func(b float64) error {
			_, err := blocks.BuildIncrementalPoolCtx(nil, nil, g, b, 1, 0, 0, core.DirectionAuto)
			return err
		}},
		{"blocks.DecomposeWeightedPoolCtx", func(b float64) error {
			_, err := blocks.DecomposeWeightedPoolCtx(nil, nil, wg, b, 1, 0, 0)
			return err
		}},
		{"lowstretch.BuildIncrementalPoolCtx", func(b float64) error {
			_, err := lowstretch.BuildIncrementalPoolCtx(nil, nil, g, b, 1, 0, core.DirectionAuto)
			return err
		}},
		{"lowstretch.BuildWeightedPoolCtx", func(b float64) error {
			_, err := lowstretch.BuildWeightedPoolCtx(nil, nil, wg, b, 1, 0, core.DirectionAuto)
			return err
		}},
	}
	for _, e := range entries {
		for _, beta := range []float64{math.NaN(), 0, 1, math.Inf(1), math.Inf(-1)} {
			if err := e.run(beta); !errors.Is(err, core.ErrBeta) {
				t.Errorf("%s(beta=%g) = %v, want core.ErrBeta", e.name, beta, err)
			}
		}
		if err := e.run(0.3); err != nil {
			t.Errorf("%s(beta=0.3) = %v", e.name, err)
		}
	}
}
