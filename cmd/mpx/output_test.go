package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// captureStdout returns everything run prints to os.Stdout.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run()
	os.Stdout = saved
	w.Close()
	got := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return got
}

// TestRunOutput pins the exact stdout of runApp, runWeightedApp and
// runUpdates for every app each one serves, on a small grid at workers 1:
// weighted levels print float aggregates, which depend on the worker
// count.
func TestRunOutput(t *testing.T) {
	g := graph.Grid2D(6, 6)
	wg := graph.RandomWeights(g, 1, 4, 3)
	batches, err := parseUpdateTrace(strings.NewReader("+ 0 35\n- 0 1\n---\n+ 2 20\n+ 0 1\n- 8 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	const beta, seed, workers = 0.5, 3, 1
	opts := core.Options{Seed: seed, Workers: workers, Direction: core.DirectionAuto}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"app/connectivity", func() error { return runApp("connectivity", g, beta, opts) }, `graph: n=36 m=60
connectivity: components=1 rounds=3 direction=auto
level 0: n=36 m=60 clusters=6 cut=17 cutFrac=0.2833 -> n'=6
level 1: n=6 m=8 clusters=3 cut=2 cutFrac=0.2500 -> n'=3
level 2: n=3 m=2 clusters=1 cut=0 cutFrac=0.0000 -> n'=1
`},
		{"app/spanner", func() error { return runApp("spanner", g, beta, opts) }, `graph: n=36 m=60
spanner: edges=40 keptFrac=0.6667 tree=28 bridges=12 direction=auto
level 0: n=36 m=60 clusters=8 cut=22 cutFrac=0.3667 -> n'=8
`},
		{"app/lowstretch", func() error { return runApp("lowstretch", g, beta, opts) }, `graph: n=36 m=60
lowstretch: levels=3 treeEdges=35 meanStretch=2.60 maxStretch=11 direction=auto
level 0: n=36 m=60 clusters=6 cut=17 cutFrac=0.2833 -> n'=6
level 1: n=6 m=8 clusters=3 cut=2 cutFrac=0.2500 -> n'=3
level 2: n=3 m=2 clusters=1 cut=0 cutFrac=0.0000 -> n'=1
`},
		{"app/blocks", func() error { return runApp("blocks", g, beta, opts) }, `graph: n=36 m=60
blocks: blocks=3 edges=60 direction=auto
level 0: n=36 m=60 clusters=6 cut=17 cutFrac=0.2833 -> n'=36
level 1: n=36 m=17 clusters=20 cut=1 cutFrac=0.0588 -> n'=36
level 2: n=36 m=1 clusters=35 cut=0 cutFrac=0.0000 -> n'=36
`},
		{"app/separator", func() error { return runApp("separator", g, beta, opts) }, `graph: n=36 m=60
separator: size=8 |A|=10 |B|=18 balance=0.643 beta=0.5 pieces=8 direction=auto
level 0: n=36 m=60 clusters=8 cut=22 cutFrac=0.3667 -> n'=8
`},
		{"app/embedding", func() error { return runApp("embedding", g, beta, opts) }, `graph: n=36 m=60
embedding: levels=5 meanDistortion=14.03 maxDistortion=46.72 dominatedFrac=1.000 direction=auto
level 0: n=36 m=60 clusters=8 cut=22 cutFrac=0.3667 -> n'=36
level 1: n=36 m=60 clusters=7 cut=21 cutFrac=0.3500 -> n'=36
level 2: n=36 m=60 clusters=1 cut=0 cutFrac=0.0000 -> n'=36
level 3: n=36 m=60 clusters=10 cut=27 cutFrac=0.4500 -> n'=36
`},
		{"weighted/lowstretch", func() error { return runWeightedApp("lowstretch", wg, beta, 4, false, opts) }, `graph: n=36 m=60 (weights U(1,4))
lowstretch: levels=3 classes=1 treeEdges=35 meanStretch=3.56 maxStretch=25.21
level 0: n=36 m=60 clusters=14 cut=35 cutFrac=0.5833 totalW=155 cutW=94.6 cutWFrac=0.6117 maxR=6.69 rounds=7 -> n'=14
level 1: n=14 m=25 clusters=2 cut=3 cutFrac=0.1200 totalW=94.6 cutW=10.9 cutWFrac=0.1150 maxR=10.43 rounds=6 -> n'=2
level 2: n=2 m=1 clusters=1 cut=0 cutFrac=0.0000 totalW=10.9 cutW=0 cutWFrac=0.0000 maxR=10.88 rounds=3 -> n'=1
`},
		{"weighted/blocks", func() error { return runWeightedApp("blocks", wg, beta, 4, false, opts) }, `graph: n=36 m=60 (weights U(1,4))
blocks: blocks=6 edges=60
level 0: n=36 m=60 clusters=14 cut=35 cutFrac=0.5833 totalW=155 cutW=94.6 cutWFrac=0.6117 maxR=6.69 rounds=7 -> n'=36
level 1: n=36 m=35 clusters=27 cut=26 cutFrac=0.7429 totalW=94.6 cutW=71.3 cutWFrac=0.7530 maxR=4.28 rounds=8 -> n'=36
level 2: n=36 m=26 clusters=17 cut=4 cutFrac=0.1538 totalW=71.3 cutW=13.1 cutWFrac=0.1833 maxR=16.94 rounds=11 -> n'=36
level 3: n=36 m=4 clusters=34 cut=2 cutFrac=0.5000 totalW=13.1 cutW=7.22 cutWFrac=0.5527 maxR=3.15 rounds=5 -> n'=36
level 4: n=36 m=2 clusters=35 cut=1 cutFrac=0.5000 totalW=7.22 cutW=3.45 cutWFrac=0.4778 maxR=3.77 rounds=5 -> n'=36
level 5: n=36 m=1 clusters=36 cut=1 cutFrac=1.0000 totalW=3.45 cutW=3.45 cutWFrac=1.0000 maxR=0.00 rounds=3 -> n'=36
level 6: n=36 m=1 clusters=36 cut=1 cutFrac=1.0000 totalW=3.45 cutW=3.45 cutWFrac=1.0000 maxR=0.00 rounds=4 -> n'=36
level 7: n=36 m=1 clusters=35 cut=0 cutFrac=0.0000 totalW=3.45 cutW=0 cutWFrac=0.0000 maxR=3.45 rounds=5 -> n'=36
`},
		{"weighted/embedding", func() error { return runWeightedApp("embedding", wg, beta, 4, false, opts) }, `graph: n=36 m=60 (weights U(1,4))
embedding: levels=7 meanDistortion=18.60 maxDistortion=120.40 dominatedFrac=1.000
level 0: n=36 m=60 clusters=5 cut=18 cutFrac=0.3000 totalW=155 cutW=48.1 cutWFrac=0.3110 maxR=15.47 rounds=11 -> n'=36
level 1: n=36 m=60 clusters=6 cut=21 cutFrac=0.3500 totalW=155 cutW=58.1 cutWFrac=0.3758 maxR=9.93 rounds=8 -> n'=36
level 2: n=36 m=60 clusters=2 cut=4 cutFrac=0.0667 totalW=155 cutW=11.6 cutWFrac=0.0752 maxR=13.80 rounds=11 -> n'=36
level 3: n=36 m=60 clusters=30 cut=54 cutFrac=0.9000 totalW=155 cutW=144 cutWFrac=0.9336 maxR=2.32 rounds=5 -> n'=36
level 4: n=36 m=60 clusters=24 cut=48 cutFrac=0.8000 totalW=155 cutW=130 cutWFrac=0.8401 maxR=3.77 rounds=5 -> n'=36
level 5: n=36 m=60 clusters=29 cut=53 cutFrac=0.8833 totalW=155 cutW=144 cutWFrac=0.9305 maxR=2.09 rounds=4 -> n'=36
`},
		{"updates/lowstretch", func() error { return runUpdates("lowstretch", g, beta, batches, opts) }, `graph: n=36 m=60 batches=2
batch 0: update{levels=3 rederived=3 refreshed=0 reused=0 dirty=3 +1/-1/~0} treeEdges=35
batch 1: update{levels=3 rederived=3 refreshed=0 reused=0 dirty=6 +2/-1/~0} treeEdges=35
lowstretch: levels=3 treeEdges=35 meanStretch=2.74 maxStretch=11 direction=auto
level 0: n=36 m=61 clusters=5 cut=19 cutFrac=0.3115 -> n'=5
level 1: n=5 m=5 clusters=2 cut=1 cutFrac=0.2000 -> n'=2
level 2: n=2 m=1 clusters=1 cut=0 cutFrac=0.0000 -> n'=1
`},
		{"updates/blocks", func() error { return runUpdates("blocks", g, beta, batches, opts) }, `graph: n=36 m=60 batches=2
batch 0: update{levels=3 rederived=3 refreshed=0 reused=0 dirty=3 +1/-1/~0} blocks=3
batch 1: update{levels=3 rederived=3 refreshed=0 reused=0 dirty=6 +2/-1/~0} blocks=3
blocks: blocks=3 edges=61 direction=auto
level 0: n=36 m=61 clusters=5 cut=19 cutFrac=0.3115 -> n'=36
level 1: n=36 m=19 clusters=20 cut=3 cutFrac=0.1579 -> n'=36
level 2: n=36 m=3 clusters=33 cut=0 cutFrac=0.0000 -> n'=36
`},
		{"updates/embedding", func() error { return runUpdates("embedding", g, beta, batches, opts) }, `graph: n=36 m=60 batches=2
batch 0: update{levels=4 repartitioned=4 refined=0 reused=0}
batch 1: update{levels=4 repartitioned=4 refined=0 reused=0}
embedding: levels=5 meanDistortion=14.24 maxDistortion=46.72 dominatedFrac=1.000 direction=auto
level 0: n=36 m=61 clusters=7 cut=23 cutFrac=0.3770 -> n'=36
level 1: n=36 m=61 clusters=7 cut=23 cutFrac=0.3770 -> n'=36
level 2: n=36 m=61 clusters=1 cut=0 cutFrac=0.0000 -> n'=36
level 3: n=36 m=61 clusters=12 cut=31 cutFrac=0.5082 -> n'=36
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := captureStdout(t, tc.run); got != tc.want {
				t.Errorf("stdout:\n%swant:\n%s", got, tc.want)
			}
		})
	}
}
