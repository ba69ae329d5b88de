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
	"slices"
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

// enums lists the values each enumerated flag accepts. -tie and -direction
// list theirs in the order of core's constants, which main indexes by.
var enums = map[string][]string{
	"gen":       {"grid", "torus", "path", "cycle", "tree", "hypercube", "gnm", "rmat", "pa", "road"},
	"app":       {"partition", "connectivity", "spanner", "lowstretch", "blocks", "separator", "embedding"},
	"algo":      {"mpx", "seq", "exact", "ballgrow", "iterative", "weighted", "weighted-par"},
	"tie":       {"fractional", "permutation"},
	"direction": {"auto", "push", "pull"},
}

// The flags are package-level so that the tests can check the flag table
// against them.
var (
	gen       = flag.String("gen", "grid", "generator: "+strings.Join(enums["gen"], "|")+" (not with -in)")
	rows      = flag.Int("rows", 100, "grid/torus/road rows")
	cols      = flag.Int("cols", 100, "grid/torus/road cols")
	n         = flag.Int("n", 10000, "vertex count for path/cycle/tree/gnm/pa")
	m         = flag.Int64("m", 40000, "edge count for gnm/rmat")
	scale     = flag.Int("scale", 14, "rmat/hypercube scale (n = 2^scale)")
	in        = flag.String("in", "", "read graph from file instead of generating; format auto-detected (CSR snapshot, binary, DIMACS, edge list)")
	dimacs    = flag.Bool("dimacs", false, "force DIMACS parsing of the -in file (bypass format auto-detection)")
	snapOut   = flag.String("snapshot-out", "", "write the loaded or generated graph (weighted under -weighted) as a binary CSR snapshot to this path, then run normally")
	beta      = flag.Float64("beta", 0.1, "decomposition parameter in (0,1); not with -app embedding, which takes each level's beta from the graph's pseudo-diameter")
	seed      = flag.Uint64("seed", 1, "random seed")
	workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	app       = flag.String("app", "partition", "workload: "+strings.Join(enums["app"], "|"))
	algo      = flag.String("algo", "mpx", "algorithm: "+strings.Join(enums["algo"], "|")+" (partition app only)")
	wmax      = flag.Float64("wmax", 4, "max edge weight of the U(1,wmax) weight draw (-algo weighted|weighted-par and -weighted)")
	weighted  = flag.Bool("weighted", false, "run the hierarchy app on a weighted graph: U(1,wmax) random weights, or the file's arc weights with -in -dimacs (lowstretch|blocks|embedding; a weighted partition is -algo weighted|weighted-par)")
	tie       = flag.String("tie", "fractional", "tie-break: "+strings.Join(enums["tie"], "|")+" (-algo mpx|seq|exact and -app spanner)")
	direction = flag.String("direction", "auto", "partition traversal: "+strings.Join(enums["direction"], "|")+" (-algo mpx and the unweighted apps)")
	pngPath   = flag.String("png", "", "write cluster coloring PNG (-app partition with an unweighted -algo; grid|torus|road generators only)")
	validate  = flag.Bool("validate", false, "run full O(m) decomposition validation (-app partition)")
	updates   = flag.String("updates", "", "replay a batched edge-update trace against an incrementally maintained app (lowstretch|blocks|embedding); see cmd/mpx/updates.go for the format")
	queries   = flag.String("queries", "", "serve a distance/cluster-membership query trace from the built lowstretch structures, or \"synth:N\" for N synthetic queries; see cmd/mpx/queries.go for the format")
	qbatch    = flag.Int("qbatch", 1024, "batch size for -queries synth:N workloads (file traces carry their own batch structure)")
	timeout   = flag.Duration("timeout", 0, "overall deadline (e.g. 30s); cancels any algorithm (parallel or serial) at its next round/poll boundary and exits non-zero, discarding partial work (0 = none)")
)

// everyMode lists the flags that every mode reads; each other flag has
// rows in flagRules. Every engine, the serial baselines included, polls the
// -timeout deadline, and -workers never changes output, so a serial -algo
// accepts it too.
var everyMode = []string{"app", "in", "seed", "snapshot-out", "timeout", "workers"}

// mode holds the flags that select what a run does, and so which of the
// other flags it reads.
type mode struct {
	app, algo, gen, in, queries, updates string
	weighted                             bool
}

// task names m's -app, or its -algo under -app partition.
func (m mode) task() string {
	if m.app == "partition" {
		return "-algo " + m.algo
	}
	return "-app " + m.app
}

// workload names m's task and -weighted.
func (m mode) workload() string {
	if m.weighted {
		return m.task() + " -weighted"
	}
	return m.task()
}

// source names m's graph source: -in, or else -gen.
func (m mode) source() string {
	if m.in != "" {
		return "-in " + m.in
	}
	return "-gen " + m.gen
}

// A flagRule declares which modes read a flag. An explicitly set flag whose
// mode fails reads exits 2 with "mpx: -<flag> <rule> (got <mode>)", where
// got names the part of the mode the message is about, without the flag
// itself.
type flagRule struct {
	flag  string
	got   func(mode) string
	reads func(mode) bool
	rule  string
}

// apps, algos and gens return the predicate that the mode runs one of the
// named apps, partition algorithms or generators.
func apps(names ...string) func(mode) bool {
	return func(m mode) bool { return slices.Contains(names, m.app) }
}

func algos(names ...string) func(mode) bool {
	return func(m mode) bool { return m.app == "partition" && slices.Contains(names, m.algo) }
}

func gens(names ...string) func(mode) bool {
	return func(m mode) bool { return m.in == "" && slices.Contains(names, m.gen) }
}

// flagRules is checked in order, so the flags that select the mode come
// first and a run is told first about the flag that picked the wrong mode.
var flagRules = []flagRule{
	{"gen", mode.source, func(m mode) bool { return m.in == "" }, "applies only to a generated graph, not to -in"},
	{"algo", mode.workload, apps("partition"), "applies only to -app partition"},
	{"weighted", mode.task, apps("lowstretch", "blocks", "embedding"), "supports apps lowstretch, blocks and embedding"},
	{"updates", mode.workload, func(m mode) bool { return !m.weighted && apps("lowstretch", "blocks", "embedding")(m) },
		"applies only to the unweighted -app lowstretch, blocks and embedding"},
	{"queries", mode.workload, func(m mode) bool { return !m.weighted && m.app == "lowstretch" && m.updates == "" },
		"applies only to the unweighted -app lowstretch, without -updates"},
	{"rows", mode.source, gens("grid", "torus", "road"), "applies only to -gen grid, torus and road"},
	{"cols", mode.source, gens("grid", "torus", "road"), "applies only to -gen grid, torus and road"},
	{"n", mode.source, gens("path", "cycle", "tree", "gnm", "pa"), "applies only to -gen path, cycle, tree, gnm and pa"},
	{"m", mode.source, gens("gnm", "rmat"), "applies only to -gen gnm and rmat"},
	{"scale", mode.source, gens("rmat", "hypercube"), "applies only to -gen rmat and hypercube"},
	{"dimacs", mode.source, func(m mode) bool { return m.in != "" }, "forces the format of an -in file; it needs -in"},
	{"beta", mode.workload, func(m mode) bool { return m.app != "embedding" },
		"applies to every app but embedding, which takes each level's beta from the graph's pseudo-diameter"},
	{"direction", mode.workload, func(m mode) bool { return algos("mpx")(m) || m.app != "partition" && !m.weighted },
		"applies only to -algo mpx and the unweighted apps"},
	{"tie", mode.workload, func(m mode) bool { return algos("mpx", "seq", "exact")(m) || m.app == "spanner" && !m.weighted },
		"applies only to -algo mpx, seq and exact and to -app spanner"},
	{"validate", mode.workload, apps("partition"), "applies only to -app partition"},
	{"wmax", mode.workload, func(m mode) bool { return m.weighted || algos("weighted", "weighted-par")(m) },
		"applies only where weights are drawn: -algo weighted and weighted-par, and -weighted"},
	{"png", mode.workload, algos("mpx", "seq", "exact", "ballgrow", "iterative"),
		"renders a single unweighted decomposition and applies only to -app partition with -algo mpx, seq, exact, ballgrow or iterative"},
	{"png", mode.source, gens("grid", "torus", "road"), "requires a grid-shaped generator (-gen grid, torus or road)"},
	{"qbatch", mode.workload, func(m mode) bool { return strings.HasPrefix(m.queries, "synth:") },
		"applies only to -queries synth:N; a trace file carries its own batches"},
}

func main() {
	flag.Parse()

	// A flag the selected mode would ignore is almost always a typo'd run,
	// and so is a value outside an enumerated flag's list: both exit 2
	// before any work.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if valid, ok := enums[f.Name]; ok && !slices.Contains(valid, f.Value.String()) {
			fmt.Fprintf(os.Stderr, "mpx: unknown -%s value %q (valid: %s)\n", f.Name, f.Value, strings.Join(valid, ", "))
			os.Exit(2)
		}
	})
	md := mode{app: *app, algo: *algo, gen: *gen, in: *in, queries: *queries, updates: *updates, weighted: *weighted}
	for _, r := range flagRules {
		if set[r.flag] && !r.reads(md) {
			fmt.Fprintf(os.Stderr, "mpx: -%s %s (got %s)\n", r.flag, r.rule, r.got(md))
			os.Exit(2)
		}
	}
	if !core.ValidBeta(*beta) {
		fmt.Fprintf(os.Stderr, "mpx: -beta must lie in (0, 1), got %g\n", *beta)
		os.Exit(2)
	}
	if !(*wmax >= 1 && !math.IsInf(*wmax, 1)) {
		fmt.Fprintf(os.Stderr, "mpx: -wmax must be a finite number >= 1, got %g\n", *wmax)
		os.Exit(2)
	}
	if *qbatch <= 0 {
		fmt.Fprintln(os.Stderr, "mpx: -qbatch must be positive")
		os.Exit(2)
	}
	if set["timeout"] && *timeout <= 0 {
		fmt.Fprintln(os.Stderr, "mpx: -timeout must be a positive duration (e.g. 30s)")
		os.Exit(2)
	}

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
	tieBreak := core.TieBreak(slices.Index(enums["tie"], *tie))
	dir := core.Direction(slices.Index(enums["direction"], *direction))
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
		if fromFile && set["wmax"] {
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

	g, closer, err := buildGraph(*in, *dimacs, *gen, *rows, *cols, *n, *m, *scale, *seed)
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
		panic("unreachable: -algo validated against enums")
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
		if err := render.GridPNG(f, d.Center, *rows, *cols, 1); err != nil {
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
func buildGraph(in string, dimacs bool, gen string, rows, cols, n int, m int64, scale int, seed uint64) (*graph.Graph, io.Closer, error) {
	if in != "" {
		if dimacs {
			f, err := os.Open(in)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			g, err := graph.ReadDIMACS(f)
			return g, nil, err
		}
		o, err := snapshot.OpenAny(in)
		if err != nil {
			return nil, nil, err
		}
		return o.Graph, o, nil
	}
	return generateGraph(gen, rows, cols, n, m, scale, seed), nil, nil
}

func generateGraph(gen string, rows, cols, n int, m int64, scale int, seed uint64) *graph.Graph {
	switch gen {
	case "grid":
		return graph.Grid2D(rows, cols)
	case "torus":
		return graph.Torus2D(rows, cols)
	case "road":
		return graph.RoadNetwork(rows, cols, 0.85, rows, seed)
	case "path":
		return graph.Path(n)
	case "cycle":
		return graph.Cycle(n)
	case "tree":
		return graph.BinaryTree(n)
	case "hypercube":
		return graph.Hypercube(scale)
	case "gnm":
		return graph.GNM(n, m, seed)
	case "rmat":
		return graph.RMAT(scale, m, seed)
	case "pa":
		return graph.PreferentialAttachment(n, 3, seed)
	default:
		panic("unreachable: -gen validated against enums")
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
	g := generateGraph(gen, rows, cols, n, m, scale, seed)
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
		panic("unreachable: -app validated against enums")
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
