// Package expt is the experiment harness: one runner per experiment id
// (E1–E18, registered by the init functions of figures.go,
// applications.go, lemmas.go and extensions.go; IDs lists them), each
// regenerating the corresponding figure, table or proved guarantee of the
// paper as measured rows. Runners scale
// with Config.Scale so the same code drives quick integration tests and the
// full paper-scale reproduction in cmd/experiments.
package expt

import (
	"fmt"
	"sort"

	"mpx/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies the paper-scale workload sizes; 1.0 reproduces the
	// full experiment, tests use ~0.05–0.2. Values <= 0 default to 1.
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// Workers caps parallelism (<= 0: GOMAXPROCS).
	Workers int
	// OutDir, when non-empty, receives rendered artifacts (E1 PNG panels).
	OutDir string
	// Trials overrides the per-point repetition count (0 = default 3).
	Trials int
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

// scaledSide returns max(min, round(base*sqrt(scale))) — used for grid side
// lengths so the vertex count scales linearly with Scale.
func (c Config) scaledSide(base, min int) int {
	s := c.scale()
	side := int(float64(base) * sqrt(s))
	if side < min {
		side = min
	}
	return side
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iterations are plenty for a scale factor.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// scaledN returns max(min, round(base*scale)).
func (c Config) scaledN(base, min int) int {
	n := int(float64(base) * c.scale())
	if n < min {
		n = min
	}
	return n
}

// Result is the output of one experiment.
type Result struct {
	ID    string
	Title string
	Table *stats.Table
	// Notes carry the pass/fail style observations the harness derives from
	// the rows (e.g. "max ratio 2.3 <= 4: consistent with Theorem 1.2").
	Notes []string
	// Artifacts lists files written to Config.OutDir.
	Artifacts []string
}

func (r *Result) String() string {
	s := fmt.Sprintf("## %s — %s\n\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		s += "\n- " + n
	}
	if len(r.Notes) > 0 {
		s += "\n"
	}
	return s
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

// registry maps experiment ids to runners; populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("expt: duplicate experiment id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 < E12 (numeric suffix).
		return idNum(ids[i]) < idNum(ids[j])
	})
	return ids
}

func idNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(cfg)
}
