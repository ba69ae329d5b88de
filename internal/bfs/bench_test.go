package bfs

import (
	"testing"

	"mpx/internal/graph"
)

func BenchmarkSequentialGrid(b *testing.B) {
	g := graph.Grid2D(400, 400)
	b.SetBytes(g.NumArcs() * 4)
	for i := 0; i < b.N; i++ {
		_ = Sequential(g, 0)
	}
}

func BenchmarkDijkstraWeighted(b *testing.B) {
	wg := graph.RandomWeights(graph.Grid2D(200, 200), 1, 10, 1)
	for i := 0; i < b.N; i++ {
		_ = DijkstraWeighted(wg, 0)
	}
}
