package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary %+v", s)
	}
	want := math.Sqrt(2.5)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std %g want %g", s.Std, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 1) != 40 {
		t.Error("percentile edges wrong")
	}
	if Percentile(sorted, 0.5) != 25 {
		t.Errorf("p50 %g want 25", Percentile(sorted, 0.5))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if len(xs) > 0 && v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	for i := range x {
		y[i] = 2 + 3*x[i]
	}
	a, b, r2 := LinearFit(x, y)
	if math.Abs(a-2) > 1e-9 || math.Abs(b-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("fit a=%g b=%g r2=%g", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, r2 := LinearFit([]float64{1}, []float64{2}); r2 != 0 {
		t.Error("short input should give r2=0")
	}
	a, b, _ := LinearFit([]float64{3, 3, 3}, []float64{1, 2, 3})
	if b != 0 || a != 2 {
		t.Errorf("constant-x fit a=%g b=%g", a, b)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 42)
	out := tb.String()
	if !strings.Contains(out, "| name") || !strings.Contains(out, "alpha") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("csv: %q", csv)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows %d", tb.NumRows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow(0.123456789)
	if !strings.Contains(tb.CSV(), "0.1235") {
		t.Errorf("float not compacted: %s", tb.CSV())
	}
}
