// Package core implements the paper's primary contribution: the parallel
// low-diameter decomposition of Miller, Peng and Xu (SPAA 2013), "Parallel
// Graph Decompositions Using Random Shifts".
//
// Given an undirected unweighted graph G and a parameter β, Partition
// draws an independent shift δ_u ~ Exp(β) for every vertex u and assigns
// each vertex v to the cluster of the center u minimizing the shifted
// distance dist(u,v) − δ_u (the paper's Algorithm 2). The result is a
// (β, O(log n / β)) decomposition with high probability: every piece has
// strong diameter O(log n / β) and at most a βm edges cross between pieces
// in expectation.
//
// The parallel implementation follows the paper's Section 5: a single
// multi-source BFS in which vertex u wakes up as a fresh center once the
// BFS clock passes δ_max − δ_u, with the fractional parts of the shifts
// acting as a random tie-breaking permutation among clusters whose claims
// arrive in the same round. For a fixed seed the output is identical at any
// worker count.
//
// The package also provides the sequential references and baselines the
// experiments compare against (exact shifted-Dijkstra references, classical
// sequential ball growing, an iterative-centers scheme in the style of
// Blelloch et al. 2011), and the weighted extension sketched in the paper's
// Section 6.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// ctxErr polls ctx at an engine boundary (between rounds or levels; never
// inside a claim kernel). A nil ctx is never cancelled. The poll calls
// ctx.Err() directly rather than selecting on Done() so fault-injection
// contexts that trip on the Nth poll observe every boundary.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// TieBreak selects how same-round (equal integer shifted distance) cluster
// claims are ordered.
type TieBreak int

const (
	// TieFractional ranks clusters by the fractional part of their start
	// time δ_max − δ_u — the paper's Algorithm 2 tie-break realized exactly.
	TieFractional TieBreak = iota
	// TiePermutation ranks clusters by an independent uniform random
	// permutation of the vertices, the substitution Section 5 argues is
	// equivalent.
	TiePermutation
)

func (t TieBreak) String() string {
	switch t {
	case TieFractional:
		return "fractional"
	case TiePermutation:
		return "permutation"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(t))
	}
}

// ShiftSource selects how the per-vertex shift values are generated.
type ShiftSource int

const (
	// ShiftExponential draws δ_u i.i.d. from Exp(β) (the analyzed scheme).
	ShiftExponential ShiftSource = iota
	// ShiftQuantile assigns δ_u from the Exp(β) quantiles of a random
	// permutation position — the Section 5 suggestion of avoiding the
	// random-variate generation entirely: δ_u = F⁻¹((π(u)+½)/n).
	ShiftQuantile
)

func (s ShiftSource) String() string {
	switch s {
	case ShiftExponential:
		return "exponential"
	case ShiftQuantile:
		return "quantile"
	default:
		return fmt.Sprintf("ShiftSource(%d)", int(s))
	}
}

// Direction selects how Partition's BFS rounds traverse the graph.
type Direction int

const (
	// DirectionAuto switches per round between push (top-down) and pull
	// (bottom-up) with the Beamer alpha/beta heuristic — push while the
	// frontier's outgoing arcs are few, pull once they dominate the
	// unexplored arcs, and back again as the frontier drains.
	DirectionAuto Direction = iota
	// DirectionForcePush pins every round to top-down expansion (the
	// original atomic-min push engine).
	DirectionForcePush
	// DirectionForcePull pins every round to bottom-up scans (each
	// unclaimed vertex serially minimizes over its neighborhood).
	DirectionForcePull
)

func (d Direction) String() string {
	switch d {
	case DirectionAuto:
		return "auto"
	case DirectionForcePush:
		return "push"
	case DirectionForcePull:
		return "pull"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Options configure Partition. The zero value is valid: seed 0, GOMAXPROCS
// workers, fractional tie-breaking, exponential shifts, automatic traversal
// direction.
type Options struct {
	// Ctx, when non-nil, cancels a partition in flight. It is polled only
	// at round boundaries — never inside a claim kernel — so cancellation
	// cannot produce a partially-resolved round: a cancelled call returns
	// (nil, ctx.Err()) and nothing else, leaving all caller state
	// untouched. Nil means never cancelled.
	Ctx context.Context
	// Seed fixes all randomness. Two runs with the same seed, graph and β
	// produce identical decompositions at any worker count.
	Seed uint64
	// Workers caps logical parallelism (the deterministic block
	// decomposition of every round); <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Pool is the persistent worker pool every parallel round executes on;
	// nil means the shared parallel.Default() pool. Construct one pool per
	// process (cmd/mpx and the benchmark harness do) and pass it here so
	// no round pays goroutine spawn costs.
	Pool *parallel.Pool
	// TieBreak selects the same-round claim ordering.
	TieBreak TieBreak
	// ShiftSource selects the shift distribution.
	ShiftSource ShiftSource
	// Direction selects the per-round traversal mode of the unweighted
	// Partition; the weighted partitions ignore it. Push and pull rounds
	// resolve claims to the same minimum packed (rank, proposer) key, so
	// every mode produces the identical decomposition; the choice only
	// moves work between cache-friendly dense scans and sparse expansions.
	// See docs/determinism.md.
	Direction Direction
}

// Decomposition is the result of a partition of an unweighted graph.
type Decomposition struct {
	// G is the decomposed graph.
	G *graph.Graph
	// Beta is the β the decomposition was computed for.
	Beta float64
	// Center[v] is the id of the center whose cluster contains v;
	// Center[c] == c exactly for cluster centers.
	Center []uint32
	// Dist[v] is dist(Center[v], v) along the claimed BFS tree, which by
	// Lemma 4.1 is also the true within-piece distance to the center.
	Dist []int32
	// Parent[v] is the BFS-tree parent of v within its cluster (itself for
	// centers). The per-cluster trees are shortest-path trees from the
	// center (used by the spanner and low-stretch-tree applications).
	Parent []uint32
	// Shifts are the δ_u used; Shifts[v] is the shift of vertex v.
	Shifts []float64
	// DeltaMax is max_u δ_u.
	DeltaMax float64
	// Rounds is the number of synchronous BFS rounds — the PRAM depth
	// proxy reported by experiment E5. For Partition it is the count of
	// the round loop over every vertex, |{b(v)} ∪ {ℓ(v)+1}| over all v,
	// where b(v) = ⌊δ_max − δ_v⌋ is v's start round and ℓ(v) = Dist[v] +
	// b(Center[v]) its claim round: a round runs when some vertex may start
	// in it or some vertex was claimed in the round before. Isolated
	// vertices count although they are filled in without a round.
	Rounds int
	// Relaxed is the number of directed edges examined — the work proxy.
	// Under DirectionForcePull it counts only the rounds vertices with
	// edges need, so it can be lower than the count of a loop over every
	// vertex, which re-scans the unclaimed cohort in rounds that only
	// isolated vertices start or end.
	Relaxed int64

	// bucket and perm retain the shift plan's edge-independent parts —
	// functions of (n, β, seed, TieBreak, ShiftSource) only — so
	// UnchangedUnder can re-evaluate claim keys in O(1) per edge without
	// re-deriving the plan. bucket is every vertex's start round. perm is
	// the TiePermutation rank of every vertex; under TieFractional it is
	// nil and ranks are recomputed from Shifts and DeltaMax. Unweighted
	// Partition sets them; other constructors leave bucket nil, which
	// disables the incremental check.
	bucket []int32
	perm   []uint32
}

// ErrBeta reports a β outside the supported range (0, 1).
var ErrBeta = errors.New("core: beta must lie in (0, 1)")

// NumVertices returns the number of vertices of the decomposed graph.
func (d *Decomposition) NumVertices() int { return len(d.Center) }

// Centers returns the sorted list of cluster centers.
func (d *Decomposition) Centers() []uint32 {
	var cs []uint32
	for v, c := range d.Center {
		if uint32(v) == c {
			cs = append(cs, c)
		}
	}
	return cs
}

// NumClusters returns the number of pieces.
func (d *Decomposition) NumClusters() int {
	n := 0
	for v, c := range d.Center {
		if uint32(v) == c {
			n++
		}
	}
	return n
}

// ClusterSizes returns a map from center id to piece size.
func (d *Decomposition) ClusterSizes() map[uint32]int {
	sizes := make(map[uint32]int)
	for _, c := range d.Center {
		sizes[c]++
	}
	return sizes
}

// Members returns the vertices of each cluster keyed by center.
func (d *Decomposition) Members() map[uint32][]uint32 {
	members := make(map[uint32][]uint32)
	for v, c := range d.Center {
		members[c] = append(members[c], uint32(v))
	}
	return members
}

// Radii returns, per center, the eccentricity of the center within its
// piece (max Dist over members). The paper bounds the strong diameter by
// twice this radius and uses the radius itself as the diameter estimate.
func (d *Decomposition) Radii() map[uint32]int32 {
	radii := make(map[uint32]int32)
	for v, c := range d.Center {
		if r, ok := radii[c]; !ok || d.Dist[v] > r {
			radii[c] = d.Dist[v]
		}
	}
	return radii
}

// MaxRadius returns the largest piece radius (0 for empty graphs).
func (d *Decomposition) MaxRadius() int32 {
	var max int32
	for _, dist := range d.Dist {
		if dist > max {
			max = dist
		}
	}
	return max
}

// CutEdges counts the undirected edges whose endpoints lie in different
// pieces.
func (d *Decomposition) CutEdges() int64 {
	offsets := d.G.Offsets()
	adj := d.G.Adjacency()
	var cut int64
	for v := 0; v < d.G.NumVertices(); v++ {
		cv := d.Center[v]
		for i := offsets[v]; i < offsets[v+1]; i++ {
			if d.Center[adj[i]] != cv {
				cut++
			}
		}
	}
	return cut / 2
}

// CutFraction returns CutEdges / m, the β-side quality measure; it returns
// 0 for edgeless graphs.
func (d *Decomposition) CutFraction() float64 {
	m := d.G.NumEdges()
	if m == 0 {
		return 0
	}
	return float64(d.CutEdges()) / float64(m)
}

// SizeHistogram returns sorted piece sizes (ascending).
func (d *Decomposition) SizeHistogram() []int {
	sizes := d.ClusterSizes()
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// String summarizes the decomposition.
func (d *Decomposition) String() string {
	return fmt.Sprintf("decomposition{n=%d clusters=%d maxRadius=%d cut=%.4f beta=%g}",
		d.NumVertices(), d.NumClusters(), d.MaxRadius(), d.CutFraction(), d.Beta)
}
