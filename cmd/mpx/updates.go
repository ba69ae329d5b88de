package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var batches []graph.Batch
	var cur graph.Batch
	flush := func() {
		if cur.Len() > 0 {
			batches = append(batches, cur)
			cur = graph.Batch{}
		}
	}
	parseVertex := func(lineNo int, s string) (uint32, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("trace line %d: bad vertex %q: %v", lineNo, s, err)
		}
		return uint32(v), nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || (len(fields) == 1 && fields[0] == "---") {
			flush()
			continue
		}
		switch fields[0] {
		case "+":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("trace line %d: insert is \"+ u v\" or \"+ u v w\", got %d fields", lineNo, len(fields))
			}
			u, err := parseVertex(lineNo, fields[1])
			if err != nil {
				return nil, err
			}
			v, err := parseVertex(lineNo, fields[2])
			if err != nil {
				return nil, err
			}
			if len(fields) == 4 {
				if len(cur.InsertW) != len(cur.Insert) {
					return nil, fmt.Errorf("trace line %d: batch mixes weighted and unweighted inserts", lineNo)
				}
				w, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("trace line %d: bad weight %q: %v", lineNo, fields[3], err)
				}
				if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
					return nil, fmt.Errorf("trace line %d: weight %q is not a finite positive number", lineNo, fields[3])
				}
				cur.InsertW = append(cur.InsertW, w)
			} else if len(cur.InsertW) > 0 {
				return nil, fmt.Errorf("trace line %d: batch mixes weighted and unweighted inserts", lineNo)
			}
			cur.Insert = append(cur.Insert, graph.Edge{U: u, V: v})
		case "-":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace line %d: delete is \"- u v\", got %d fields", lineNo, len(fields))
			}
			u, err := parseVertex(lineNo, fields[1])
			if err != nil {
				return nil, err
			}
			v, err := parseVertex(lineNo, fields[2])
			if err != nil {
				return nil, err
			}
			cur.Delete = append(cur.Delete, graph.Edge{U: u, V: v})
		default:
			return nil, fmt.Errorf("trace line %d: unknown op %q (want \"+\", \"-\", \"---\" or a comment)", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %v", lineNo+1, err)
	}
	flush()
	if len(batches) == 0 {
		return nil, fmt.Errorf("trace: no batches (every line is blank or a comment)")
	}
	return batches, nil
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
