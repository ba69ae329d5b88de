package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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

// TestFlagAudit runs the test binary as mpx on a small generated path. An
// explicitly set flag that the selected mode would ignore exits 2 with a
// message naming the rule; the same flag where the mode reads it runs.
func TestFlagAudit(t *testing.T) {
	const (
		direction = "mpx: -direction applies only to -algo mpx and the unweighted apps"
		tie       = "mpx: -tie applies only to -algo mpx, seq and exact and to -app spanner"
		weighted  = "mpx: -weighted supports apps lowstretch, blocks and embedding"
	)
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"-gen", "path", "-n", "40"}, tc.args...)...)
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
