package main

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/embedding"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
)

// parseUpdateTrace reads a batch trace for -updates: one edge operation per
// line — "+ u v" (insert), "+ u v w" (weighted insert), "- u v" (delete) —
// with batches separated by blank lines or a "---" line, and "#" starting
// a comment. Malformed lines fail with their line number; a trace may not
// mix weighted and unweighted inserts within one batch (graph.Batch
// requires InsertW to cover every insert or none).
func parseUpdateTrace(r io.Reader) ([]graph.Batch, error) {
	return readTrace(r, "batches", graph.Batch.Len, func(l *traceLine, b *graph.Batch) {
		switch l.fields[0] {
		case "+":
			if len(l.fields) != 3 && len(l.fields) != 4 {
				l.fail("insert is \"+ u v\" or \"+ u v w\", got %d fields", len(l.fields))
				return
			}
			u, v := l.vertex(1), l.vertex(2)
			if len(l.fields) == 4 {
				if len(b.InsertW) != len(b.Insert) {
					l.fail("batch mixes weighted and unweighted inserts")
				}
				w, err := strconv.ParseFloat(l.fields[3], 64)
				if err != nil {
					l.fail("bad weight %q: %v", l.fields[3], err)
				} else if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
					l.fail("weight %q is not a finite positive number", l.fields[3])
				}
				b.InsertW = append(b.InsertW, w)
			} else if len(b.InsertW) > 0 {
				l.fail("batch mixes weighted and unweighted inserts")
			}
			b.Insert = append(b.Insert, graph.Edge{U: u, V: v})
		case "-":
			if len(l.fields) != 3 {
				l.fail("delete is \"- u v\", got %d fields", len(l.fields))
				return
			}
			b.Delete = append(b.Delete, graph.Edge{U: l.vertex(1), V: l.vertex(2)})
		default:
			l.fail("unknown op %q (want \"+\", \"-\", \"---\" or a comment)", l.fields[0])
		}
	})
}

// runUpdates replays a batch trace against an incrementally maintained
// application, printing per-batch reuse statistics — the -updates mode.
// The maintained structure is bit-identical after every batch to a
// from-scratch build on the updated graph (the incremental contract), so
// the final summary line matches a plain run on the final graph.
func runUpdates(app string, g *graph.Graph, beta float64, batches []graph.Batch, opts core.Options) error {
	ctx, pool, seed, workers, dir := opts.Ctx, opts.Pool, opts.Seed, opts.Workers, opts.Direction
	for i, b := range batches {
		if len(b.InsertW) > 0 {
			return fmt.Errorf("trace batch %d has weighted inserts; -updates replays unweighted hierarchies (drop the weight column)", i)
		}
	}
	fmt.Printf("graph: n=%d m=%d batches=%d\n", g.NumVertices(), g.NumEdges(), len(batches))
	switch app {
	case "lowstretch":
		inc, err := lowstretch.BuildIncrementalPoolCtx(ctx, pool, g, beta, seed, workers, dir)
		if err != nil {
			return err
		}
		for i, b := range batches {
			us, err := inc.UpdateCtx(ctx, b)
			if err != nil {
				return fmt.Errorf("batch %d: %v", i, err)
			}
			fmt.Printf("batch %d: %s treeEdges=%d\n", i, us, len(inc.Tree().Edges))
		}
		printLowstretch(inc.Tree(), dir)
	case "blocks":
		inc, err := blocks.BuildIncrementalPoolCtx(ctx, pool, g, beta, seed, 0, workers, dir)
		if err != nil {
			return err
		}
		for i, b := range batches {
			us, err := inc.UpdateCtx(ctx, b)
			if err != nil {
				return fmt.Errorf("batch %d: %v", i, err)
			}
			fmt.Printf("batch %d: %s blocks=%d\n", i, us, inc.Decomposition().NumBlocks())
		}
		printBlocks(inc.Decomposition(), dir)
	case "embedding":
		inc, err := embedding.BuildIncrementalPoolCtx(ctx, pool, g, 0, seed, workers, dir)
		if err != nil {
			return err
		}
		for i, b := range batches {
			us, err := inc.UpdateCtx(ctx, b)
			if err != nil {
				return fmt.Errorf("batch %d: %v", i, err)
			}
			fmt.Printf("batch %d: update{levels=%d repartitioned=%d refined=%d reused=%d}\n",
				i, us.Levels, us.Repartitioned, us.Refined, us.Reused)
		}
		printEmbedding(inc.Tree(), seed, dir)
	default:
		return fmt.Errorf("-updates supports apps lowstretch, blocks and embedding (got %q)", app)
	}
	return nil
}
