// Command mpx runs a low-diameter decomposition — or any of the
// decomposition-hierarchy applications built on it — on a generated or
// loaded graph and reports its quality, optionally rendering grid
// decompositions to PNG.
//
// Usage examples:
//
//	mpx -gen grid -rows 200 -cols 200 -beta 0.05 -png out.png
//	mpx -gen gnm -n 100000 -m 400000 -beta 0.1 -algo ballgrow
//	mpx -in graph.txt -beta 0.02 -seed 7 -validate
//	mpx -in big.gr -snapshot-out big.mpxsnap          (convert once, then)
//	mpx -in big.mpxsnap -beta 0.1                     (mmap-loaded CSR snapshot)
//	mpx -app lowstretch -gen grid -rows 150 -cols 150 -beta 0.2 -workers 8
//	mpx -app connectivity -gen rmat -scale 15 -m 200000 -beta 0.4 -direction pull
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/embedding"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/apps/separator"
	"mpx/internal/apps/spanner"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
	"mpx/internal/hier"
	"mpx/internal/parallel"
	"mpx/internal/render"
	"mpx/internal/stats"
)

func main() {
	var (
		gen       = flag.String("gen", "grid", "generator: grid|torus|path|cycle|tree|hypercube|gnm|rmat|pa|road (ignored with -in)")
		rows      = flag.Int("rows", 100, "grid/torus/road rows")
		cols      = flag.Int("cols", 100, "grid/torus/road cols")
		n         = flag.Int("n", 10000, "vertex count for path/cycle/tree/gnm/pa")
		m         = flag.Int64("m", 40000, "edge count for gnm/rmat")
		scale     = flag.Int("scale", 14, "rmat/hypercube scale (n = 2^scale)")
		in        = flag.String("in", "", "read graph from file instead of generating; format auto-detected (CSR snapshot, binary, DIMACS, edge list)")
		dimacs    = flag.Bool("dimacs", false, "force DIMACS parsing of the -in file (bypass format auto-detection)")
		snapOut   = flag.String("snapshot-out", "", "write the loaded or generated graph (weighted under -weighted) as a binary CSR snapshot to this path, then run normally")
		beta      = flag.Float64("beta", 0.1, "decomposition parameter in (0,1)")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		app       = flag.String("app", "partition", "workload: partition|connectivity|spanner|lowstretch|blocks|separator|embedding")
		algo      = flag.String("algo", "mpx", "algorithm: mpx|seq|exact|ballgrow|iterative|weighted|weighted-par (partition app only)")
		wmax      = flag.Float64("wmax", 4, "max edge weight of the U(1,wmax) weight draw (-algo weighted|weighted-par and -weighted)")
		weighted  = flag.Bool("weighted", false, "run the hierarchy app on a weighted graph: U(1,wmax) random weights, or the file's arc weights with -in -dimacs (lowstretch|blocks|embedding)")
		tie       = flag.String("tie", "fractional", "tie-break: fractional|permutation (-algo mpx|seq|exact and -app spanner)")
		direction = flag.String("direction", "auto", "partition traversal: auto|push|pull (-algo mpx and the unweighted apps)")
		pngPath   = flag.String("png", "", "write cluster coloring PNG (-app partition with an unweighted -algo; grid|torus|road generators only)")
		validate  = flag.Bool("validate", false, "run full O(m) decomposition validation (-app partition)")
		updates   = flag.String("updates", "", "replay a batched edge-update trace against an incrementally maintained app (lowstretch|blocks|embedding); see cmd/mpx/updates.go for the format")
		queries   = flag.String("queries", "", "serve a distance/cluster-membership query trace from the built lowstretch structures, or \"synth:N\" for N synthetic queries; see cmd/mpx/queries.go for the format")
		qbatch    = flag.Int("qbatch", 1024, "batch size for -queries synth:N workloads (file traces carry their own batch structure)")
		timeout   = flag.Duration("timeout", 0, "overall deadline (e.g. 30s); cancels any algorithm (parallel or serial) at its next round/poll boundary and exits non-zero, discarding partial work (0 = none)")
	)
	flag.Parse()

	// Explicitly set flags that the selected mode would silently ignore are
	// hard errors: a flag that does nothing is almost always a typo'd run.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Enumerated flags are validated up front and exit with the valid set: a
	// typo like "-tie perm" must not silently change results by falling back
	// to a default.
	tieBreaks := map[string]core.TieBreak{
		"fractional":  core.TieFractional,
		"permutation": core.TiePermutation,
	}
	directions := map[string]core.Direction{
		"auto": core.DirectionAuto,
		"push": core.DirectionForcePush,
		"pull": core.DirectionForcePull,
	}
	validAlgos := map[string]bool{
		"mpx": true, "seq": true, "exact": true, "ballgrow": true,
		"iterative": true, "weighted": true, "weighted-par": true,
	}
	validApps := map[string]bool{
		"partition": true, "connectivity": true, "spanner": true, "lowstretch": true,
		"blocks": true, "separator": true, "embedding": true,
	}
	tieBreak, ok := tieBreaks[*tie]
	if !ok {
		fmt.Fprintf(os.Stderr, "mpx: unknown -tie value %q (valid: fractional, permutation)\n", *tie)
		os.Exit(2)
	}
	dir, ok := directions[*direction]
	if !ok {
		fmt.Fprintf(os.Stderr, "mpx: unknown -direction value %q (valid: auto, push, pull)\n", *direction)
		os.Exit(2)
	}
	if !validAlgos[*algo] {
		fmt.Fprintf(os.Stderr, "mpx: unknown -algo value %q (valid: mpx, seq, exact, ballgrow, iterative, weighted, weighted-par)\n", *algo)
		os.Exit(2)
	}
	if !validApps[*app] {
		fmt.Fprintf(os.Stderr, "mpx: unknown -app value %q (valid: partition, connectivity, spanner, lowstretch, blocks, separator, embedding)\n", *app)
		os.Exit(2)
	}
	// -weighted must never be dropped silently: the partition app selects
	// its weighted algorithms via -algo, and only three hierarchy apps
	// have a weighted variant.
	if *weighted {
		switch *app {
		case "lowstretch", "blocks", "embedding":
		case "partition":
			fmt.Fprintln(os.Stderr, "mpx: -weighted applies to hierarchy apps (lowstretch, blocks, embedding); for -app partition use -algo weighted or weighted-par")
			os.Exit(2)
		default:
			fmt.Fprintf(os.Stderr, "mpx: -weighted supports apps lowstretch, blocks and embedding (got -app %s)\n", *app)
			os.Exit(2)
		}
	}
	if *in != "" {
		for _, name := range []string{"gen", "rows", "cols", "n", "m", "scale"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "mpx: -%s shapes a generated graph and is ignored with -in; remove one of them\n", name)
				os.Exit(2)
			}
		}
	}
	if explicit["algo"] && *app != "partition" {
		fmt.Fprintf(os.Stderr, "mpx: -algo applies only to -app partition (got -app %s)\n", *app)
		os.Exit(2)
	}
	// -direction is read only by core.Partition, and -tie only by the shift
	// plan of -algo mpx, seq and exact and by the spanner; the hierarchy
	// apps, the baselines and the weighted partitions have neither knob.
	mode := "-app " + *app
	if *app == "partition" {
		mode = "-algo " + *algo
	} else if *weighted {
		mode += " -weighted"
	}
	if explicit["direction"] && (*weighted || *app == "partition" && *algo != "mpx") {
		fmt.Fprintf(os.Stderr, "mpx: -direction applies only to -algo mpx and the unweighted apps (got %s)\n", mode)
		os.Exit(2)
	}
	readsTie := *app == "spanner" && !*weighted ||
		*app == "partition" && (*algo == "mpx" || *algo == "seq" || *algo == "exact")
	if explicit["tie"] && !readsTie {
		fmt.Fprintf(os.Stderr, "mpx: -tie applies only to -algo mpx, seq and exact and to -app spanner (got %s)\n", mode)
		os.Exit(2)
	}
	// -validate is read only by -app partition, -wmax only where weights
	// are drawn, -dimacs only with -in, and -png only by an unweighted
	// partition of a grid-shaped generator.
	if *validate && *app != "partition" {
		fmt.Fprintf(os.Stderr, "mpx: -validate applies only to -app partition (got %s)\n", mode)
		os.Exit(2)
	}
	drawsWeights := *weighted || *algo == "weighted" || *algo == "weighted-par"
	if explicit["wmax"] && !drawsWeights {
		fmt.Fprintf(os.Stderr, "mpx: -wmax applies only where weights are drawn: -algo weighted and weighted-par, and -weighted (got %s)\n", mode)
		os.Exit(2)
	}
	if drawsWeights && !(*wmax >= 1 && !math.IsInf(*wmax, 1)) {
		fmt.Fprintf(os.Stderr, "mpx: -wmax must be a finite number >= 1, got %g\n", *wmax)
		os.Exit(2)
	}
	if *dimacs && *in == "" {
		fmt.Fprintln(os.Stderr, "mpx: -dimacs forces the format of an -in file; it needs -in")
		os.Exit(2)
	}
	if *pngPath != "" {
		if *app != "partition" || *algo == "weighted" || *algo == "weighted-par" {
			fmt.Fprintf(os.Stderr, "mpx: -png renders a single unweighted decomposition and applies only to -app partition with -algo mpx, seq, exact, ballgrow or iterative (got %s)\n", mode)
			os.Exit(2)
		}
		if *in != "" || *gen != "grid" && *gen != "torus" && *gen != "road" {
			fmt.Fprintln(os.Stderr, "mpx: -png requires a grid-shaped generator (-gen grid, torus or road)")
			os.Exit(2)
		}
	}
	if *updates != "" {
		switch *app {
		case "lowstretch", "blocks", "embedding":
		default:
			fmt.Fprintf(os.Stderr, "mpx: -updates supports apps lowstretch, blocks and embedding (got -app %s)\n", *app)
			os.Exit(2)
		}
		if *weighted {
			fmt.Fprintln(os.Stderr, "mpx: -updates replays unweighted hierarchies; drop -weighted")
			os.Exit(2)
		}
	}
	if *queries != "" {
		if *app != "lowstretch" {
			fmt.Fprintf(os.Stderr, "mpx: -queries serves the lowstretch tree and hierarchy; use -app lowstretch (got -app %s)\n", *app)
			os.Exit(2)
		}
		if *weighted {
			fmt.Fprintln(os.Stderr, "mpx: -queries serves unweighted structures; drop -weighted")
			os.Exit(2)
		}
		if *updates != "" {
			fmt.Fprintln(os.Stderr, "mpx: -queries and -updates are separate modes; pick one")
			os.Exit(2)
		}
		if *qbatch <= 0 {
			fmt.Fprintln(os.Stderr, "mpx: -qbatch must be positive")
			os.Exit(2)
		}
	}
	if explicit["qbatch"] && !strings.HasPrefix(*queries, "synth:") {
		fmt.Fprintln(os.Stderr, "mpx: -qbatch shapes -queries synth:N workloads only; file traces carry their own batch structure")
		os.Exit(2)
	}
	if explicit["timeout"] && *timeout <= 0 {
		fmt.Fprintln(os.Stderr, "mpx: -timeout must be a positive duration (e.g. 30s)")
		os.Exit(2)
	}
	// Every -algo — the parallel engines AND the serial baselines — polls
	// the deadline context (round boundaries for the parallel engines, key
	// advances or settle cadences for the serial references), so -timeout
	// applies uniformly; no algo silently ignores it.

	// ctx carries the -timeout deadline into every engine below; nil (the
	// engines' "never cancelled") when no deadline was requested.
	var ctx context.Context
	if *timeout > 0 {
		tctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx = tctx
	}

	// One persistent worker pool serves the whole run; every parallel round
	// of every algorithm below executes on it.
	pool := parallel.NewPool(0)
	defer pool.Close()
	opts := core.Options{Ctx: ctx, Seed: *seed, Workers: *workers, TieBreak: tieBreak, Direction: dir, Pool: pool}

	// Weighted hierarchy apps build their graph once (a weighted DIMACS
	// file is parsed a single time, weights included) and run before the
	// unweighted path.
	if *weighted {
		wg, closer, fromFile, err := loadWeightedGraph(*in, *dimacs, *gen, *rows, *cols, *n, *m, *scale, *wmax, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpx:", err)
			os.Exit(1)
		}
		if closer != nil {
			defer closer.Close()
		}
		if fromFile && explicit["wmax"] {
			fmt.Fprintf(os.Stderr, "mpx: -wmax draws U(1,wmax) weights, but %s carries its own; drop -wmax\n", *in)
			os.Exit(2)
		}
		if *snapOut != "" {
			writeSnapshotOut(*snapOut, nil, wg)
		}
		if err := runWeightedApp(*app, wg, *beta, *wmax, fromFile, opts); err != nil {
			fail(err, *timeout)
		}
		return
	}

	g, gridRows, gridCols, closer, err := buildGraph(*in, *dimacs, *gen, *rows, *cols, *n, *m, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpx:", err)
		os.Exit(1)
	}
	if closer != nil {
		defer closer.Close()
	}
	if *snapOut != "" {
		writeSnapshotOut(*snapOut, g, nil)
	}

	if *queries != "" {
		if err := runQueries(g, *beta, *queries, *qbatch, opts); err != nil {
			fail(err, *timeout)
		}
		return
	}

	if *updates != "" {
		f, err := os.Open(*updates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpx:", err)
			os.Exit(1)
		}
		batches, err := parseUpdateTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpx:", err)
			os.Exit(1)
		}
		if err := runUpdates(*app, g, *beta, batches, opts); err != nil {
			fail(err, *timeout)
		}
		return
	}

	if *app != "partition" {
		if err := runApp(*app, g, *beta, opts); err != nil {
			fail(err, *timeout)
		}
		return
	}

	if *algo == "weighted" || *algo == "weighted-par" {
		wg := graph.RandomWeights(g, 1, *wmax, *seed)
		var wd *core.WeightedDecomposition
		if *algo == "weighted" {
			wd, err = core.PartitionWeighted(wg, *beta, opts)
		} else {
			wd, err = core.PartitionWeightedParallel(wg, *beta, 0, opts)
		}
		if err != nil {
			fail(err, *timeout)
		}
		fmt.Printf("graph: n=%d m=%d (weights U(1,%g))\n", g.NumVertices(), g.NumEdges(), *wmax)
		fmt.Printf("decomposition: beta=%g clusters=%d rounds=%d\n", *beta, wd.NumClusters(), wd.Rounds)
		fmt.Printf("radius: max=%.2f (deltaMax=%.2f)\n", wd.MaxRadius(), wd.DeltaMax)
		fmt.Printf("cut: weightFraction=%.4f edgeFraction=%.4f\n",
			wd.CutWeightFraction(), wd.CutEdgeFraction())
		if *validate {
			if err := wd.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, "mpx: VALIDATION FAILED:", err)
				os.Exit(1)
			}
			fmt.Println("validation: OK")
		}
		return
	}

	var d *core.Decomposition
	switch *algo {
	case "mpx":
		d, err = core.Partition(g, *beta, opts)
	case "seq":
		d, err = core.PartitionSequential(g, *beta, opts)
	case "exact":
		d, err = core.PartitionExact(g, *beta, opts)
	case "ballgrow":
		d, err = core.BallGrowingCtx(ctx, g, *beta, *seed)
	case "iterative":
		d, err = core.PartitionIterativeCtx(ctx, g, *beta, *seed, *workers)
	default:
		panic("unreachable: -algo validated against validAlgos above")
	}
	if err != nil {
		fail(err, *timeout)
	}

	report(g, d, *beta)
	if *validate {
		if *algo == "ballgrow" || *algo == "iterative" {
			d.Shifts = nil // baselines have no shift certificates
		}
		if err := d.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "mpx: VALIDATION FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("validation: OK (pieces connected, distances exact, radius within shift bound)")
	}
	if *pngPath != "" {
		f, err := os.Create(*pngPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpx:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := render.GridPNG(f, d.Center, gridRows, gridCols, 1); err != nil {
			fmt.Fprintln(os.Stderr, "mpx:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *pngPath)
	}
}

// fail prints err and exits non-zero. A -timeout deadline gets a dedicated
// message so a cancelled run is unambiguous in logs and scripts.
func fail(err error, timeout time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mpx: timed out after %v (-timeout): cancelled at an engine boundary, partial work discarded\n", timeout)
	} else {
		fmt.Fprintln(os.Stderr, "mpx:", err)
	}
	os.Exit(1)
}

// buildGraph loads (-in, any supported format via snapshot.OpenAny) or
// generates the input graph. The io.Closer, when non-nil, owns resources
// backing the graph — a snapshot's memory mapping — and must outlive
// every use of it.
func buildGraph(in string, dimacs bool, gen string, rows, cols, n int, m int64, scale int, seed uint64) (*graph.Graph, int, int, io.Closer, error) {
	if in != "" {
		if dimacs {
			f, err := os.Open(in)
			if err != nil {
				return nil, 0, 0, nil, err
			}
			defer f.Close()
			g, err := graph.ReadDIMACS(f)
			return g, 0, 0, nil, err
		}
		o, err := snapshot.OpenAny(in)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		return o.Graph, 0, 0, o, nil
	}
	g, rows2, cols2, err := generateGraph(gen, rows, cols, n, m, scale, seed)
	return g, rows2, cols2, nil, err
}

func generateGraph(gen string, rows, cols, n int, m int64, scale int, seed uint64) (*graph.Graph, int, int, error) {
	switch gen {
	case "grid":
		return graph.Grid2D(rows, cols), rows, cols, nil
	case "torus":
		return graph.Torus2D(rows, cols), rows, cols, nil
	case "road":
		return graph.RoadNetwork(rows, cols, 0.85, rows, seed), rows, cols, nil
	case "path":
		return graph.Path(n), 0, 0, nil
	case "cycle":
		return graph.Cycle(n), 0, 0, nil
	case "tree":
		return graph.BinaryTree(n), 0, 0, nil
	case "hypercube":
		return graph.Hypercube(scale), 0, 0, nil
	case "gnm":
		return graph.GNM(n, m, seed), 0, 0, nil
	case "rmat":
		return graph.RMAT(scale, m, seed), 0, 0, nil
	case "pa":
		return graph.PreferentialAttachment(n, 3, seed), 0, 0, nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown generator %q", gen)
	}
}

// loadWeightedGraph builds the weighted input in one pass: a source that
// carries weights (a weighted snapshot, or a DIMACS file — auto-detected
// or forced with -dimacs) keeps them, parsed exactly once; every other
// source builds the unweighted graph and lifts it with deterministic
// U(1, wmax) weights from the seed. The io.Closer, when non-nil, owns the
// graph's backing resources (see buildGraph).
func loadWeightedGraph(in string, dimacs bool, gen string, rows, cols, n int, m int64, scale int, wmax float64, seed uint64) (wg *graph.WeightedGraph, closer io.Closer, fromFile bool, err error) {
	if in != "" {
		if dimacs {
			f, err := os.Open(in)
			if err != nil {
				return nil, nil, false, err
			}
			defer f.Close()
			wg, err := graph.ReadDIMACSWeighted(f)
			return wg, nil, true, err
		}
		o, err := snapshot.OpenAny(in)
		if err != nil {
			return nil, nil, false, err
		}
		if o.Weighted != nil {
			return o.Weighted, o, true, nil
		}
		return graph.RandomWeights(o.Graph, 1, wmax, seed), o, false, nil
	}
	g, _, _, err := generateGraph(gen, rows, cols, n, m, scale, seed)
	if err != nil {
		return nil, nil, false, err
	}
	return graph.RandomWeights(g, 1, wmax, seed), nil, false, nil
}

// writeSnapshotOut writes the -snapshot-out artifact and reports the
// content fingerprint — the registry/cache key a serving layer would use.
func writeSnapshotOut(path string, g *graph.Graph, wg *graph.WeightedGraph) {
	if err := snapshot.WriteFile(path, g, wg); err != nil {
		fmt.Fprintln(os.Stderr, "mpx:", err)
		os.Exit(1)
	}
	fp := uint64(0)
	kind := "unweighted"
	if wg != nil {
		fp, kind = wg.Fingerprint(), "weighted"
	} else {
		fp = g.Fingerprint()
	}
	fmt.Printf("snapshot: wrote %s (%s) fingerprint=%016x\n", path, kind, fp)
}

// runWeightedApp drives the weighted variant of a hierarchy application —
// the true AKPW low-stretch tree, the weighted Linial–Saks blocks, or the
// weighted tree-metric embedding — printing the per-level weighted
// hierarchy statistics.
func runWeightedApp(app string, wg *graph.WeightedGraph, beta, wmax float64, fromFile bool, opts core.Options) error {
	ctx, pool, seed, workers := opts.Ctx, opts.Pool, opts.Seed, opts.Workers
	if fromFile {
		fmt.Printf("graph: n=%d m=%d (weighted input)\n", wg.NumVertices(), wg.NumEdges())
	} else {
		fmt.Printf("graph: n=%d m=%d (weights U(1,%g))\n", wg.NumVertices(), wg.NumEdges(), wmax)
	}
	switch app {
	case "lowstretch":
		tr, err := lowstretch.BuildWeightedPoolCtx(ctx, pool, wg, beta, seed, workers, core.DirectionAuto)
		if err != nil {
			return err
		}
		st := tr.Stretch()
		fmt.Printf("lowstretch: levels=%d classes=%d treeEdges=%d meanStretch=%.2f maxStretch=%.2f\n",
			tr.Levels, len(tr.ClassHistogram), len(tr.Edges), st.Mean, st.Max)
		printHierStats(tr.Stats)
	case "blocks":
		bd, err := blocks.DecomposeWeightedPoolCtx(ctx, pool, wg, beta, seed, 0, workers)
		if err != nil {
			return err
		}
		fmt.Printf("blocks: blocks=%d edges=%d\n", bd.NumBlocks(), bd.EdgeCount())
		printHierStats(bd.Stats)
	case "embedding":
		tr, err := embedding.BuildWeightedPoolCtx(ctx, pool, wg, 0, seed, workers)
		if err != nil {
			return err
		}
		dist := tr.MeasureDistortion(200, seed)
		fmt.Printf("embedding: levels=%d meanDistortion=%.2f maxDistortion=%.2f dominatedFrac=%.3f\n",
			tr.Levels, dist.MeanDistortion, dist.MaxDistortion, dist.DominatedFrac)
		printHierStats(tr.Stats)
	default:
		panic("unreachable: -weighted apps validated in the flag audit above")
	}
	return nil
}

// runApp drives one of the hierarchy applications on the shared process
// pool, honoring -beta, -seed, -workers and -direction, and prints the
// per-level hierarchy statistics the internal/hier engine records.
func runApp(app string, g *graph.Graph, beta float64, opts core.Options) error {
	ctx, pool, seed, workers, dir := opts.Ctx, opts.Pool, opts.Seed, opts.Workers, opts.Direction
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	switch app {
	case "connectivity":
		r, err := connectivity.ComponentsPoolCtx(ctx, pool, g, beta, seed, workers, dir)
		if err != nil {
			return err
		}
		fmt.Printf("connectivity: components=%d rounds=%d direction=%s\n", r.Components, r.Rounds, dir)
		printHierStats(r.Stats)
	case "spanner":
		s, err := spanner.Build(g, beta, opts)
		if err != nil {
			return err
		}
		fmt.Printf("spanner: edges=%d keptFrac=%.4f tree=%d bridges=%d direction=%s\n",
			s.Size(), float64(s.Size())/float64(g.NumEdges()), s.TreeEdges, s.BridgeEdges, dir)
		d := s.Decomposition
		printHierStats([]hier.LevelStat{{
			Level: 0, N: g.NumVertices(), M: g.NumEdges(),
			Clusters: d.NumClusters(), CutEdges: d.CutEdges(),
			CutFraction: d.CutFraction(), QuotientN: d.NumClusters(),
		}})
	case "lowstretch":
		tr, err := lowstretch.BuildPoolCtx(ctx, pool, g, beta, seed, workers, dir)
		if err != nil {
			return err
		}
		printLowstretch(tr, dir)
	case "blocks":
		bd, err := blocks.DecomposePoolCtx(ctx, pool, g, beta, seed, 0, workers, dir)
		if err != nil {
			return err
		}
		printBlocks(bd, dir)
	case "separator":
		r, err := separator.FindPoolCtx(ctx, pool, g, beta, 2.0/3, seed, workers, dir)
		if err != nil {
			return err
		}
		fmt.Printf("separator: size=%d |A|=%d |B|=%d balance=%.3f beta=%g pieces=%d direction=%s\n",
			len(r.Separator), len(r.SideA), len(r.SideB), r.Balance, r.Beta, r.Pieces, dir)
		printHierStats(r.Stats)
	case "embedding":
		tr, err := embedding.BuildPoolCtx(ctx, pool, g, 0, seed, workers, dir)
		if err != nil {
			return err
		}
		printEmbedding(tr, seed, dir)
	default:
		panic("unreachable: -app validated against validApps above")
	}
	return nil
}

// printLowstretch, printBlocks and printEmbedding print an app's closing
// summary line and per-level stats; runApp and runUpdates share them.
func printLowstretch(tr *lowstretch.Tree, dir core.Direction) {
	st := tr.Stretch()
	fmt.Printf("lowstretch: levels=%d treeEdges=%d meanStretch=%.2f maxStretch=%d direction=%s\n",
		tr.Levels, len(tr.Edges), st.Mean, st.Max, dir)
	printHierStats(tr.Stats)
}

func printBlocks(bd *blocks.Decomposition, dir core.Direction) {
	fmt.Printf("blocks: blocks=%d edges=%d direction=%s\n", bd.NumBlocks(), bd.EdgeCount(), dir)
	printHierStats(bd.Stats)
}

func printEmbedding(tr *embedding.Tree, seed uint64, dir core.Direction) {
	dist := tr.MeasureDistortion(200, seed)
	fmt.Printf("embedding: levels=%d meanDistortion=%.2f maxDistortion=%.2f dominatedFrac=%.3f direction=%s\n",
		tr.Levels, dist.MeanDistortion, dist.MaxDistortion, dist.DominatedFrac, dir)
	printHierStats(tr.Stats)
}

// printHierStats reports the hierarchy shape: per level, the graph sizes
// entering the level, the piece count, the cut fraction passed onward, and
// the quotient size the next level runs on. Weighted levels add the weight
// structure (total and cut weight, weighted radius, Δ-stepping rounds).
func printHierStats(stats []hier.LevelStat) {
	for _, st := range stats {
		if st.Weighted {
			fmt.Printf("level %d: n=%d m=%d clusters=%d cut=%d cutFrac=%.4f totalW=%.3g cutW=%.3g cutWFrac=%.4f maxR=%.2f rounds=%d -> n'=%d\n",
				st.Level, st.N, st.M, st.Clusters, st.CutEdges, st.CutFraction,
				st.TotalWeight, st.CutWeight, st.CutWeightFraction, st.WMaxRadius, st.Rounds, st.QuotientN)
			continue
		}
		fmt.Printf("level %d: n=%d m=%d clusters=%d cut=%d cutFrac=%.4f -> n'=%d\n",
			st.Level, st.N, st.M, st.Clusters, st.CutEdges, st.CutFraction, st.QuotientN)
	}
}

func report(g *graph.Graph, d *core.Decomposition, beta float64) {
	radii := make([]float64, 0)
	for _, r := range d.Radii() {
		radii = append(radii, float64(r))
	}
	sum := stats.Summarize(radii)
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("decomposition: beta=%g clusters=%d rounds=%d relaxed=%d\n",
		beta, d.NumClusters(), d.Rounds, d.Relaxed)
	fmt.Printf("radius: max=%d p95=%.0f median=%.0f\n", d.MaxRadius(), sum.P95, sum.P50)
	fmt.Printf("cut: edges=%d fraction=%.4f (beta=%g)\n", d.CutEdges(), d.CutFraction(), beta)
}
