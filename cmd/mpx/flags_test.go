package main

import (
	"bytes"
	"errors"
	"flag"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mpx/internal/core"
	"mpx/internal/graph"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can run it as mpx with arguments of its own.
const runMainEnv = "MPX_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagAudit runs the test binary as mpx on a small generated path,
// unless the arguments name -gen or -in (here a small weighted DIMACS
// file). An explicitly set flag that the selected mode would ignore exits 2
// with a message naming the rule and prints nothing on stdout; the same
// flag where the mode reads it runs. In the arguments, {dir} is a
// temporary directory and {wgr} the DIMACS file.
func TestFlagAudit(t *testing.T) {
	const (
		direction = "mpx: -direction applies only to -algo mpx and the unweighted apps"
		tie       = "mpx: -tie applies only to -algo mpx, seq and exact and to -app spanner"
		weighted  = "mpx: -weighted supports apps lowstretch, blocks and embedding"
		validate  = "mpx: -validate applies only to -app partition"
		wmax      = "mpx: -wmax applies only where weights are drawn: -algo weighted and weighted-par, and -weighted"
		png       = "mpx: -png renders a single unweighted decomposition and applies only to -app partition with -algo mpx, seq, exact, ballgrow or iterative"
	)
	dir := t.TempDir()
	wgr := filepath.Join(dir, "w.gr")
	if err := os.WriteFile(wgr, []byte("p sp 4 3\na 1 2 2.5\na 2 3 1\na 3 4 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	placeholders := strings.NewReplacer("{dir}", dir, "{wgr}", wgr)
	cases := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"direction/weighted-par", []string{"-algo", "weighted-par", "-direction", "push"}, 2, direction + " (got -algo weighted-par)"},
		{"direction/weighted-app", []string{"-app", "lowstretch", "-weighted", "-direction", "auto"}, 2, direction + " (got -app lowstretch -weighted)"},
		{"direction/seq", []string{"-algo", "seq", "-direction", "pull"}, 2, direction + " (got -algo seq)"},
		{"direction/weighted", []string{"-algo", "weighted", "-direction", "pull"}, 2, direction + " (got -algo weighted)"},
		{"direction/ballgrow", []string{"-algo", "ballgrow", "-direction", "push"}, 2, direction + " (got -algo ballgrow)"},
		{"tie/lowstretch", []string{"-app", "lowstretch", "-tie", "permutation"}, 2, tie + " (got -app lowstretch)"},
		{"tie/weighted-blocks", []string{"-app", "blocks", "-weighted", "-tie", "permutation"}, 2, tie + " (got -app blocks -weighted)"},
		{"tie/iterative", []string{"-algo", "iterative", "-tie", "permutation"}, 2, tie + " (got -algo iterative)"},
		{"tie/weighted-par", []string{"-algo", "weighted-par", "-tie", "fractional"}, 2, tie + " (got -algo weighted-par)"},
		{"existing/algo-with-app", []string{"-app", "blocks", "-algo", "seq"}, 2, "mpx: -algo applies only to -app partition (got -app blocks)"},
		{"existing/unknown-direction", []string{"-direction", "sideways"}, 2, `mpx: unknown -direction value "sideways"`},
		{"weighted/connectivity", []string{"-app", "connectivity", "-weighted"}, 2, weighted + " (got -app connectivity)"},
		{"weighted/spanner", []string{"-app", "spanner", "-weighted"}, 2, weighted + " (got -app spanner)"},
		{"weighted/separator", []string{"-app", "separator", "-weighted"}, 2, weighted + " (got -app separator)"},
		{"reads/direction-mpx", []string{"-algo", "mpx", "-direction", "pull"}, 0, ""},
		{"reads/direction-app", []string{"-app", "connectivity", "-direction", "push"}, 0, ""},
		{"reads/tie-seq", []string{"-algo", "seq", "-tie", "permutation"}, 0, ""},
		{"reads/tie-spanner", []string{"-app", "spanner", "-tie", "permutation"}, 0, ""},
		{"reads/weighted-par", []string{"-algo", "weighted-par"}, 0, ""},
		{"validate/blocks", []string{"-app", "blocks", "-validate"}, 2, validate + " (got -app blocks)"},
		{"validate/weighted-blocks", []string{"-app", "blocks", "-weighted", "-validate"}, 2, validate + " (got -app blocks -weighted)"},
		{"validate/queries", []string{"-app", "lowstretch", "-queries", "synth:10", "-validate"}, 2, validate + " (got -app lowstretch)"},
		{"wmax/partition", []string{"-wmax", "8"}, 2, wmax + " (got -algo mpx)"},
		{"wmax/spanner", []string{"-app", "spanner", "-wmax", "3"}, 2, wmax + " (got -app spanner)"},
		{"wmax/weighted-file", []string{"-in", "{wgr}", "-app", "lowstretch", "-weighted", "-wmax", "3"}, 2, "mpx: -wmax draws U(1,wmax) weights, but " + wgr + " carries its own; drop -wmax"},
		{"wmax/below-one", []string{"-algo", "weighted", "-wmax", "0.5"}, 2, "mpx: -wmax must be a finite number >= 1, got 0.5"},
		{"wmax/infinite", []string{"-app", "blocks", "-weighted", "-wmax", "+Inf"}, 2, "mpx: -wmax must be a finite number >= 1, got +Inf"},
		{"dimacs/no-in", []string{"-dimacs"}, 2, "mpx: -dimacs forces the format of an -in file; it needs -in"},
		{"png/weighted-par", []string{"-algo", "weighted-par", "-png", "{dir}/wp.png"}, 2, png + " (got -algo weighted-par)"},
		{"png/path", []string{"-png", "{dir}/path.png"}, 2, "mpx: -png requires a grid-shaped generator (-gen grid, torus or road)"},
		{"reads/validate-mpx", []string{"-validate"}, 0, ""},
		{"reads/validate-weighted", []string{"-algo", "weighted", "-validate"}, 0, ""},
		{"reads/wmax-weighted-par", []string{"-algo", "weighted-par", "-wmax", "8"}, 0, ""},
		{"reads/wmax-weighted-app", []string{"-app", "blocks", "-weighted", "-wmax", "8"}, 0, ""},
		{"reads/weighted-file", []string{"-in", "{wgr}", "-app", "lowstretch", "-weighted"}, 0, ""},
		{"reads/dimacs", []string{"-in", "{wgr}", "-dimacs"}, 0, ""},
		{"reads/png-grid", []string{"-gen", "grid", "-rows", "8", "-cols", "8", "-png", "{dir}/grid.png"}, 0, ""},
		{"shape/grid-n", []string{"-gen", "grid", "-n", "500"}, 2, "mpx: -n applies only to -gen path, cycle, tree, gnm and pa (got -gen grid)"},
		{"shape/grid-m", []string{"-gen", "grid", "-m", "99"}, 2, "mpx: -m applies only to -gen gnm and rmat (got -gen grid)"},
		{"shape/path-rows", []string{"-gen", "path", "-rows", "7"}, 2, "mpx: -rows applies only to -gen grid, torus and road (got -gen path)"},
		{"shape/pa-scale", []string{"-gen", "pa", "-scale", "3"}, 2, "mpx: -scale applies only to -gen rmat and hypercube (got -gen pa)"},
		{"shape/hypercube-n", []string{"-gen", "hypercube", "-n", "10"}, 2, "mpx: -n applies only to -gen path, cycle, tree, gnm and pa (got -gen hypercube)"},
		{"beta/embedding", []string{"-app", "embedding", "-beta", "0.3"}, 2, "mpx: -beta applies to every app but embedding"},
		{"beta/weighted-embedding", []string{"-app", "embedding", "-weighted", "-beta", "0.3"}, 2, "(got -app embedding -weighted)"},
		{"gen/unknown", []string{"-gen", "bogus"}, 2, `mpx: unknown -gen value "bogus" (valid: grid, torus, path, cycle, tree, hypercube, gnm, rmat, pa, road)`},
		{"validate/false", []string{"-app", "blocks", "-validate=false"}, 2, "mpx: -validate applies only to -app partition (got -app blocks)"},
		{"reads/hypercube-scale", []string{"-gen", "hypercube", "-scale", "4"}, 0, ""},
		{"reads/rmat-scale-m", []string{"-gen", "rmat", "-scale", "6", "-m", "100"}, 0, ""},
		{"reads/torus-rows-cols", []string{"-gen", "torus", "-rows", "5", "-cols", "5"}, 0, ""},
		{"reads/gnm-n-m", []string{"-gen", "gnm", "-n", "50", "-m", "100"}, 0, ""},
		{"beta/zero", []string{"-beta", "0"}, 2, "mpx: -beta must lie in (0, 1), got 0"},
		{"beta/one", []string{"-app", "blocks", "-beta", "1"}, 2, "mpx: -beta must lie in (0, 1), got 1"},
		{"beta/two", []string{"-app", "lowstretch", "-beta", "2"}, 2, "mpx: -beta must lie in (0, 1), got 2"},
		{"beta/nan", []string{"-beta", "NaN"}, 2, "mpx: -beta must lie in (0, 1), got NaN"},
		{"beta/nan-lowstretch", []string{"-app", "lowstretch", "-beta", "NaN"}, 2, "mpx: -beta must lie in (0, 1), got NaN"},
		{"beta/inf", []string{"-algo", "weighted-par", "-beta", "+Inf"}, 2, "mpx: -beta must lie in (0, 1), got +Inf"},
		{"beta/minus-inf", []string{"-app", "lowstretch", "-weighted", "-beta", "-Inf"}, 2, "mpx: -beta must lie in (0, 1), got -Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-gen", "path", "-n", "40"}
			if slices.Contains(tc.args, "-in") || slices.Contains(tc.args, "-gen") {
				args = nil
			}
			for _, a := range tc.args {
				args = append(args, placeholders.Replace(a))
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code || !strings.Contains(stderr.String(), tc.msg) {
				t.Fatalf("mpx %s: exit %d, stderr %q; want exit %d with %q",
					strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.msg)
			}
			if code != 0 && stdout.Len() > 0 {
				t.Fatalf("mpx %s: rejected after printing %q", strings.Join(tc.args, " "), stdout.String())
			}
		})
	}
}

// tableReads reports whether the flag table lets mode md read flag name:
// every row for the flag holds.
func tableReads(name string, md mode) bool {
	for _, r := range flagRules {
		if r.flag == name && !r.reads(md) {
			return false
		}
	}
	return true
}

// TestFlagTable checks the audit's declarations against the flags mpx
// defines. A row that names a misspelled flag would silently disable its
// rule, and a flag with neither a row nor a place on everyMode would
// escape the audit.
func TestFlagTable(t *testing.T) {
	named := slices.Clone(everyMode)
	ruled := map[string]bool{}
	for _, r := range flagRules {
		named = append(named, r.flag)
		ruled[r.flag] = true
	}
	for name := range enums {
		named = append(named, name)
	}
	for _, name := range named {
		if flag.Lookup(name) == nil {
			t.Errorf("the audit names -%s, which mpx does not define", name)
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the testing package's own flags
		}
		if ruled[f.Name] == slices.Contains(everyMode, f.Name) {
			t.Errorf("-%s must have flag table rows or be on everyMode, and not both", f.Name)
		}
	})
	// main converts -tie and -direction by their index in enums.
	for i, s := range enums["tie"] {
		if got := core.TieBreak(i).String(); got != s {
			t.Errorf(`enums["tie"][%d] = %q, but core.TieBreak(%d) is %q`, i, s, i, got)
		}
	}
	for i, s := range enums["direction"] {
		if got := core.Direction(i).String(); got != s {
			t.Errorf(`enums["direction"][%d] = %q, but core.Direction(%d) is %q`, i, s, i, got)
		}
	}
}

// TestFlagTableShapes checks the rows of the shape flags against
// generateGraph: changing one shape value changes the generated graph
// exactly when the table says the generator reads that flag.
func TestFlagTableShapes(t *testing.T) {
	base := map[string]int{"rows": 6, "cols": 5, "n": 40, "m": 60, "scale": 5}
	alt := map[string]int{"rows": 7, "cols": 8, "n": 55, "m": 90, "scale": 6}
	fingerprint := func(gen string, v map[string]int) uint64 {
		return generateGraph(gen, v["rows"], v["cols"], v["n"], int64(v["m"]), v["scale"], 1).Fingerprint()
	}
	for _, gen := range enums["gen"] {
		want := fingerprint(gen, base)
		for name, v := range alt {
			shaped := maps.Clone(base)
			shaped[name] = v
			changed := fingerprint(gen, shaped) != want
			if reads := tableReads(name, mode{gen: gen}); changed != reads {
				t.Errorf("-gen %s: changing -%s changes the graph: %v; the flag table says it reads -%s: %v", gen, name, changed, name, reads)
			}
		}
	}
}

// TestFlagTableBeta checks the -beta row against the app runners: changing
// -beta changes a run's stdout exactly when the table says its mode reads
// -beta. It covers every app but partition, whose report prints -beta
// itself, unweighted and with -weighted where the table allows it.
func TestFlagTableBeta(t *testing.T) {
	g := graph.Grid2D(6, 6)
	wg := graph.RandomWeights(g, 1, 4, 3)
	opts := core.Options{Seed: 3, Workers: 1, Direction: core.DirectionAuto}
	for _, app := range enums["app"] {
		for _, weighted := range []bool{false, true} {
			md := mode{app: app, algo: "mpx", weighted: weighted}
			if app == "partition" || weighted && !tableReads("weighted", md) {
				continue
			}
			stdout := func(beta float64) string {
				return captureStdout(t, func() error {
					if weighted {
						return runWeightedApp(app, wg, beta, 4, false, opts)
					}
					return runApp(app, g, beta, opts)
				})
			}
			changed := stdout(0.25) != stdout(0.5)
			if reads := tableReads("beta", md); changed != reads {
				t.Errorf("%s: changing -beta changes stdout: %v; the flag table says it reads -beta: %v", md.workload(), changed, reads)
			}
		}
	}
}
