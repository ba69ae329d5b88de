package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// traceLine is one non-blank line of a batched trace, split into fields.
// It keeps only the line's first parse error, so a parser may parse every
// field without checking each result and the line still fails with the
// check that failed first, as an early return would.
type traceLine struct {
	no     int
	fields []string
	err    error
}

// fail records a parse error for the line unless it already has one.
func (l *traceLine) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("trace line %d: %s", l.no, fmt.Sprintf(format, args...))
	}
}

// vertex parses field i as a vertex id.
func (l *traceLine) vertex(i int) uint32 {
	v, err := strconv.ParseUint(l.fields[i], 10, 32)
	if err != nil {
		l.fail("bad vertex %q: %v", l.fields[i], err)
	}
	return uint32(v)
}

// readTrace reads a batched trace, the format of -updates and -queries:
// "#" starts a comment, a blank line or a "---" line ends a batch, and
// every other line is an item that parse adds to the current batch. size
// reports a batch's item count; empty batches are dropped, and a trace
// with none fails, naming its items as what.
func readTrace[B any](r io.Reader, what string, size func(B) int, parse func(l *traceLine, cur *B)) ([]B, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var batches []B
	var cur B
	flush := func() {
		if size(cur) > 0 {
			batches = append(batches, cur)
			cur = *new(B)
		}
	}
	var l traceLine
	for sc.Scan() {
		l.no++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		l.fields = strings.Fields(line)
		if len(l.fields) == 0 || (len(l.fields) == 1 && l.fields[0] == "---") {
			flush()
			continue
		}
		parse(&l, &cur)
		if l.err != nil {
			return nil, l.err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %v", l.no+1, err)
	}
	flush()
	if len(batches) == 0 {
		return nil, fmt.Errorf("trace: no %s (every line is blank or a comment)", what)
	}
	return batches, nil
}
