package main

import (
	"strings"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

func TestParseUpdateTrace(t *testing.T) {
	trace := `
# warm-up batch
+ 0 5
- 1 2   # inline comment
+ 3 4

---
- 7 8
+ 9 10
`
	batches, err := parseUpdateTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	b0 := batches[0]
	wantIns := []graph.Edge{{U: 0, V: 5}, {U: 3, V: 4}}
	wantDel := []graph.Edge{{U: 1, V: 2}}
	if len(b0.Insert) != len(wantIns) || len(b0.Delete) != len(wantDel) {
		t.Fatalf("batch 0 = %+v", b0)
	}
	for i := range wantIns {
		if b0.Insert[i] != wantIns[i] {
			t.Fatalf("batch 0 insert %d = %v, want %v", i, b0.Insert[i], wantIns[i])
		}
	}
	if b0.Delete[0] != wantDel[0] {
		t.Fatalf("batch 0 delete = %v", b0.Delete[0])
	}
	if b0.InsertW != nil {
		t.Fatal("unweighted trace produced InsertW")
	}
	b1 := batches[1]
	if len(b1.Insert) != 1 || len(b1.Delete) != 1 || b1.Insert[0] != (graph.Edge{U: 9, V: 10}) {
		t.Fatalf("batch 1 = %+v", b1)
	}
}

func TestParseUpdateTraceWeighted(t *testing.T) {
	batches, err := parseUpdateTrace(strings.NewReader("+ 1 2 3.5\n+ 4 5 0.25\n- 6 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("got %d batches", len(batches))
	}
	b := batches[0]
	if len(b.InsertW) != 2 || b.InsertW[0] != 3.5 || b.InsertW[1] != 0.25 {
		t.Fatalf("weights = %v", b.InsertW)
	}
}

func TestParseUpdateTraceErrors(t *testing.T) {
	cases := []struct {
		name, trace, wantSub string
	}{
		{"bad op", "* 1 2\n", "line 1: unknown op"},
		{"short insert", "+ 1\n", "line 1: insert"},
		{"long delete", "- 1 2 3\n", "line 1: delete"},
		{"bad vertex", "+ 1 x\n", `line 1: bad vertex "x"`},
		{"negative vertex", "+ -1 2\n", `line 1: bad vertex "-1"`},
		{"bad weight", "+ 1 2 heavy\n", `line 1: bad weight "heavy"`},
		{"bad vertex before bad weight", "+ x 2 heavy\n", `line 1: bad vertex "x"`},
		{"nan weight", "+ 1 2 NaN\n", `line 1: weight "NaN" is not a finite positive number`},
		{"inf weight", "+ 1 2 +Inf\n", `line 1: weight "+Inf" is not a finite positive number`},
		{"zero weight", "+ 1 2 0\n", `line 1: weight "0" is not a finite positive number`},
		{"negative weight", "+ 1 2 -1.5\n", `line 1: weight "-1.5" is not a finite positive number`},
		{"mixed weights", "+ 1 2\n+ 3 4 1.5\n", "line 2: batch mixes weighted and unweighted"},
		{"mixed weights reversed", "+ 1 2 1.5\n+ 3 4\n", "line 2: batch mixes weighted and unweighted"},
		{"empty", "# nothing\n\n---\n", "no batches"},
		{"line numbers after comments", "# one\n# two\n\n- 1 2 3\n", "line 4: delete"},
	}
	for _, tc := range cases {
		_, err := parseUpdateTrace(strings.NewReader(tc.trace))
		if err == nil {
			t.Fatalf("%s: parse succeeded, want error containing %q", tc.name, tc.wantSub)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not contain %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestRunUpdatesReplay smoke-tests the replay driver end to end on every
// supported app: the incremental structures absorb the trace without error
// (bit-identity itself is gated by the app-level incremental suites).
func TestRunUpdatesReplay(t *testing.T) {
	trace := "+ 0 30\n- 0 1\n---\n+ 2 40\n+ 0 1\n- 5 6\n"
	batches, err := parseUpdateTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"lowstretch", "blocks", "embedding"} {
		g := graph.Grid2D(12, 12)
		if err := runUpdates(app, g, 0.3, batches, core.Options{Seed: 1, Workers: 2}); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	g := graph.Grid2D(8, 8)
	if err := runUpdates("partition", g, 0.3, batches, core.Options{Seed: 1, Workers: 2}); err == nil {
		t.Fatal("unsupported app must error")
	}
	weightedBatch, err := parseUpdateTrace(strings.NewReader("+ 1 2 4.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runUpdates("lowstretch", g, 0.3, weightedBatch, core.Options{Seed: 1, Workers: 2}); err == nil {
		t.Fatal("weighted trace must error on unweighted replay")
	}
}
