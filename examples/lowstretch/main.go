// Lowstretch builds AKPW-style low-stretch spanning trees on grids using
// the paper's Partition as the decomposition step, and compares average
// edge stretch against plain BFS trees — the tree-embedding application
// that motivates the paper (parallel SDD solvers).
package main

import (
	"fmt"
	"log"

	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
)

func main() {
	fmt.Printf("%12s %8s %15s %16s %12s\n", "graph", "n", "bfsMeanStretch", "akpwMeanStretch", "improvement")
	for _, side := range []int{32, 64, 128, 192} {
		g := graph.Grid2D(side, side)
		bfsTree, err := lowstretch.BFSTree(g)
		if err != nil {
			log.Fatal(err)
		}
		akpw, err := lowstretch.BuildPoolCtx(nil, nil, g, 0.2, 5, 0, core.DirectionAuto)
		if err != nil {
			log.Fatal(err)
		}
		b, l := bfsTree.Stretch(), akpw.Stretch()
		fmt.Printf("%12s %8d %15.2f %16.2f %11.2fx\n",
			fmt.Sprintf("grid%dx%d", side, side), g.NumVertices(), b.Mean, l.Mean, b.Mean/l.Mean)
	}
	fmt.Println("\nBFS-tree stretch grows ~sqrt(n); the decomposition hierarchy keeps it nearly flat.")
}
