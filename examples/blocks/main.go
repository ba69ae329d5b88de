// Blocks computes a Linial–Saks style block decomposition of a skewed
// power-law (RMAT) graph by iterating the paper's (1/2, O(log n))
// decomposition, showing the geometric decay of edges per block.
package main

import (
	"fmt"
	"log"
	"math"

	"mpx/internal/apps/blocks"
	"mpx/internal/core"
	"mpx/internal/graph"
)

func main() {
	g0 := graph.RMAT(15, 200000, 13)
	g, _ := graph.LargestComponent(g0)
	fmt.Printf("rmat graph: n=%d m=%d  (log2 m = %.1f)\n\n", g.NumVertices(), g.NumEdges(),
		math.Log2(float64(g.NumEdges())))

	bd, err := blocks.DecomposePoolCtx(nil, nil, g, 0.5, 2, 0, 0, core.DirectionAuto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %10s %10s %10s\n", "block", "edges", "clusters", "maxRadius")
	for i, b := range bd.Blocks {
		fmt.Printf("%6d %10d %10d %10d\n", i, len(b.Edges), b.Clusters, b.MaxComponentRadius)
	}
	fmt.Printf("\n%d blocks cover all %d edges; every block component has O(log n) diameter.\n",
		bd.NumBlocks(), bd.EdgeCount())
}
