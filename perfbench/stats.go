package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics), leaving xs untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally is the failure accounting of one run: every op attempted, and why
// each failed one failed.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Transport int `json:"transport_errors"`
	Client4xx int `json:"status_4xx"`
	Overload  int `json:"status_429"`
	Cancelled int `json:"status_503_cancelled"`
	Fault     int `json:"status_503_fault"`
	Other     int `json:"status_other"`
	Mismatch  int `json:"check_mismatches"`
	CacheHit  int `json:"cache_hits"`
	CacheMiss int `json:"cache_misses"`
}

// httpFailure records a non-2xx reply by class; kind is the typed error
// envelope's kind field.
func (t *tally) httpFailure(status int, body []byte) {
	t.Failed++
	switch {
	case status == 429:
		t.Overload++
	case status == 503 && bytes.Contains(body, []byte(`"kind":"cancelled"`)):
		t.Cancelled++
	case status == 503 && bytes.Contains(body, []byte(`"kind":"fault"`)):
		t.Fault++
	case status >= 400 && status < 500:
		t.Client4xx++
	default:
		t.Other++
	}
}

func (t *tally) transportFailure() { t.Failed++; t.Transport++ }

// mismatch records a check failure on an op that already counted as
// attempted (and, until now, succeeded).
func (t *tally) mismatch(format string, args ...any) {
	t.Failed++
	t.Mismatch++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Workload string
	Tally    tally
	Samples  int // latency samples behind every percentile
	Metrics  map[string]metric
	Notes    []string // human-readable extras: modes, layer self times
	Trace    string   // path of the written trace, if any
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// endToEnd fills the five end-to-end metrics from the measured phase:
// lat holds one sample per successful op, wall the phase's timed wall
// clock.
func (r *result) endToEnd(setups []float64, lat []float64, wall time.Duration, rssMB float64) {
	r.Samples = len(lat)
	r.set("setup_s", "s", median(setups))
	r.set("ops_per_s", "ops/s", float64(len(lat))/wall.Seconds())
	r.set("latency_p50_ms", "ms", quantile(lat, 0.5))
	r.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	r.set("rss_peak_mb", "MB", rssMB)
}

// timeSetups runs set-ups from..to-1, each after stopping the previous
// daemon, and appends each one's wall time in seconds to out.
func timeSetups(out *[]float64, from, to int, stop func() error, setup func(k int) error) error {
	for k := from; k < to; k++ {
		if err := stop(); err != nil {
			return fmt.Errorf("mpxd exit: %w", err)
		}
		t0 := time.Now()
		if err := setup(k); err != nil {
			return fmt.Errorf("set-up %d: %w", k, err)
		}
		*out = append(*out, time.Since(t0).Seconds())
	}
	return nil
}

// host is the provenance every result carries.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, if it has one
// (a source export does not), without running git.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// procStatus reads a "Key:   123 kB" field of /proc/<pid>/status in MB.
func procStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// cpuSteal returns the host's cumulative steal and total CPU ticks from
// /proc/stat: time other tenants of the machine took from this one.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of the machine's CPU time stolen by
// other tenants over an interval: context for a slow run.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuSteal()
	return stealMeter{s, t}
}

// String describes the steal since the meter started.
func (m stealMeter) String() string {
	s, t := cpuSteal()
	if t <= m.total {
		return "cpu steal during the measured phase: unknown"
	}
	return fmt.Sprintf("cpu steal during the measured phase: %.1f%%", 100*float64(s-m.steal)/float64(t-m.total))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling %T: %v", v, err))
	}
	return b
}
