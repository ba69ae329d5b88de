package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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

// TestFlagAudit runs the test binary as mpx on a small generated path, or
// on a small weighted DIMACS file where the arguments name -in. An
// explicitly set flag that the selected mode would ignore exits 2 with a
// message naming the rule; the same flag where the mode reads it runs. In
// the arguments, {dir} is a temporary directory and {wgr} the DIMACS file.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-gen", "path", "-n", "40"}
			if slices.Contains(tc.args, "-in") {
				args = nil
			}
			for _, a := range tc.args {
				args = append(args, placeholders.Replace(a))
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
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
		})
	}
}
