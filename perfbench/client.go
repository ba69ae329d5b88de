package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one mpxd child process, started with its default flags
// (only -addr picks a free loopback port) and its spool dir under the
// benchmark's work dir.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once stdout and stderr hit EOF

	mu        sync.Mutex
	gcCycles  int     // gctrace lines seen
	gcHeapMax float64 // largest heap size at a GC start, MB
}

// startDaemon launches bin and waits until it listens. With gctrace the
// daemon runs under GODEBUG=gctrace=1 and its GC lines are parsed.
func startDaemon(bin, tmpDir string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mpxd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mpxd: listening on "); ok {
				ready <- a
			}
		}
		close(ready)
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.gcLine(sc.Text())
		}
	}()
	go func() { wg.Wait(); close(d.done) }()
	select {
	case a, ok := <-ready:
		if !ok {
			d.stop()
			return nil, errors.New("mpxd exited before listening")
		}
		d.addr = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("mpxd did not listen within 30s")
	}
	return d, nil
}

// gcLine parses one gctrace line: "gc N @t s P%: ... A->B->C MB, ...".
func (d *daemon) gcLine(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gcCycles++
	if i := strings.Index(line, " MB,"); i > 0 {
		f := strings.Fields(line[:i])
		heaps := strings.Split(f[len(f)-1], "->")
		if v, err := strconv.ParseFloat(heaps[0], 64); err == nil && v > d.gcHeapMax {
			d.gcHeapMax = v
		}
	}
}

func (d *daemon) gcStats() (int, float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcCycles, d.gcHeapMax
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM (mpxd drains and exits), waits for the pipes to
// close and the process to be reaped; a daemon that does not exit within
// 30s is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	return d.cmd.Wait()
}

// conn is one keep-alive HTTP/1.1 connection: requests are pre-encoded
// bytes, responses are read into caller-owned buffers.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// reply is one parsed response; Body aliases the buffer passed to do.
type reply struct {
	Status int
	Cache  string // X-Mpxd-Cache header ("hit", "miss" or "")
	Body   []byte
}

// do writes req and reads the response into buf (grown if needed). Any
// error is a transport error: the connection is unusable afterwards.
func (c *conn) do(req []byte, buf []byte) (reply, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return reply{}, buf, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return reply{}, buf, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 {
		return reply{}, buf, fmt.Errorf("malformed status line %q", line)
	}
	var rep reply
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return reply{}, buf, fmt.Errorf("malformed status line %q", line)
		}
		rep.Status = rep.Status*10 + int(c-'0')
	}
	length := -1
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return reply{}, buf, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			length = 0
			for _, c := range v {
				if c < '0' || c > '9' {
					return reply{}, buf, fmt.Errorf("bad Content-Length %q", v)
				}
				length = length*10 + int(c-'0')
			}
		case bytes.EqualFold(k, []byte("X-Mpxd-Cache")):
			switch string(v) { // no allocation: compared, not stored
			case "hit":
				rep.Cache = "hit"
			case "miss":
				rep.Cache = "miss"
			default:
				rep.Cache = "other"
			}
		}
	}
	if length < 0 {
		return reply{}, buf, errors.New("response without Content-Length")
	}
	if cap(buf) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return reply{}, buf, err
	}
	rep.Body = buf
	return rep, buf, nil
}
