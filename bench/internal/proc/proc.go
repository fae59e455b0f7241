// Package proc runs and measures the processes under test: lowlatd child
// daemons (booted on 127.0.0.1:0, address parsed from their banner the
// way scripts/serve_smoke.sh does, always reaped) and the /proc readers
// behind cpu_ms_per_op, alloc_kb_per_op and peak_rss_mb.
package proc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Build compiles ./cmd/lowlatd of the repository at root into out. It is
// not part of any workload's setup_s.
func Build(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/lowlatd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("proc: go build ./cmd/lowlatd: %w\n%s", err, b)
	}
	return nil
}

// Daemon is one running lowlatd child.
type Daemon struct {
	// URL is the serving base URL, DebugURL the -debug-addr listener's.
	URL, DebugURL string

	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result; read after exited is closed
	stderr *tail
}

// tail keeps the last few KiB a child wrote, for failure messages.
type tail struct {
	mu  sync.Mutex
	buf []byte // guarded by mu
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

const (
	servingMark = " on http://"
	debugPrefix = "lowlatd: debug endpoints"
	servePrefix = "lowlatd: serving"
	bootTimeout = 30 * time.Second
	stopTimeout = 10 * time.Second
)

// Start boots `bin args... -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0`,
// waits for the banner naming the bound addresses and then for /healthz.
// On any failure the child is killed and reaped before Start returns.
func Start(ctx context.Context, bin string, args ...string) (*Daemon, error) {
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("proc: %w", err)
	}
	d := &Daemon{cmd: cmd, exited: make(chan struct{}), stderr: &tail{}}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("proc: start %s: %w", bin, err)
	}

	// The scanner goroutine owns stdout until EOF (a daemon blocked on a
	// full pipe would never shut down), then reaps the child.
	type banner struct{ url, debug string }
	ready := make(chan banner, 1) // one send: the banner, or its absence at EOF
	go func() {
		defer close(d.exited)
		var b banner
		sent := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndex(line, servingMark)
			if sent || i < 0 {
				continue
			}
			addr := "http://" + strings.TrimSpace(line[i+len(servingMark):])
			switch {
			case strings.HasPrefix(line, debugPrefix):
				b.debug = addr
			case strings.HasPrefix(line, servePrefix):
				b.url = addr
				ready <- b
				sent = true
			}
		}
		if !sent {
			ready <- banner{}
		}
		d.err = cmd.Wait()
	}()

	fail := func(err error) (*Daemon, error) {
		_ = cmd.Process.Kill()
		<-d.exited
		return nil, fmt.Errorf("%w\nstderr: %s", err, d.stderr.String())
	}
	select {
	case b := <-ready:
		if b.url == "" {
			return fail(fmt.Errorf("proc: %s exited before printing its address", bin))
		}
		d.URL, d.DebugURL = b.url, b.debug
	case <-time.After(bootTimeout):
		return fail(fmt.Errorf("proc: %s printed no address within %s", bin, bootTimeout))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(bootTimeout)
	for {
		if _, err := httpGet(ctx, d.URL+"/healthz"); err == nil {
			return d, nil
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("proc: %s never became healthy: %w", d.URL, err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Pid is the child's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Stop asks the daemon to shut down (SIGTERM), escalates to SIGKILL
// after stopTimeout, and returns only once the child has been reaped.
// A non-zero exit is an error: a daemon that cannot shut down cleanly is
// a finding.
func (d *Daemon) Stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("proc: %s had already exited: %v\nstderr: %s", d.URL, d.err, d.stderr.String())
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("proc: %s ignored SIGTERM for %s; killed", d.URL, stopTimeout)
	}
	if d.err != nil {
		return fmt.Errorf("proc: %s: %w\nstderr: %s", d.URL, d.err, d.stderr.String())
	}
	return nil
}

// Kill terminates and reaps the child without ceremony (error paths).
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 on every
// architecture Go supports; /proc/<pid>/stat reports CPU time in it.
const clockTick = 10 * time.Millisecond

// CPU reads the child's user + system time from /proc/<pid>/stat.
func (d *Daemon) CPU() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/" + d.PidString() + "/stat")
	if err != nil {
		return 0, fmt.Errorf("proc: %w", err)
	}
	return parseStatCPU(stat)
}

// parseStatCPU extracts utime + stime (fields 14 and 15) from the
// contents of a /proc/<pid>/stat file. The command name (field 2) may
// contain spaces; fields resume after its closing parenthesis.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("proc: malformed /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc: malformed CPU fields in /proc/<pid>/stat")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// SelfCPU is this process's user + system time. getrusage has
// microsecond resolution where /proc/self/stat counts 10 ms ticks, and
// in-process workloads divide CPU by few operations.
func SelfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Heap is the part of runtime.MemStats the benchmark reads, whether from
// this process or from a daemon's /debug/pprof/heap?debug=1.
type Heap struct {
	TotalAlloc uint64
	Mallocs    uint64
	NumGC      uint64
	PauseNs    uint64
}

// Sub returns h - earlier, field by field.
func (h Heap) Sub(earlier Heap) Heap {
	return Heap{
		TotalAlloc: h.TotalAlloc - earlier.TotalAlloc,
		Mallocs:    h.Mallocs - earlier.Mallocs,
		NumGC:      h.NumGC - earlier.NumGC,
		PauseNs:    h.PauseNs - earlier.PauseNs,
	}
}

// Add returns h + o.
func (h Heap) Add(o Heap) Heap {
	return Heap{
		TotalAlloc: h.TotalAlloc + o.TotalAlloc,
		Mallocs:    h.Mallocs + o.Mallocs,
		NumGC:      h.NumGC + o.NumGC,
		PauseNs:    h.PauseNs + o.PauseNs,
	}
}

// Heap fetches the daemon's allocation counters through its debug
// listener.
func (d *Daemon) Heap(ctx context.Context) (Heap, error) {
	if d.DebugURL == "" {
		return Heap{}, errors.New("proc: daemon has no debug listener")
	}
	body, err := httpGet(ctx, d.DebugURL+"/debug/pprof/heap?debug=1")
	if err != nil {
		return Heap{}, err
	}
	return ParseHeapProfile(body)
}

// ParseHeapProfile reads the "# Field = value" MemStats trailer of a
// debug=1 heap profile. PauseNs there is the runtime's circular buffer
// of the last 256 pauses; its sum stands in for PauseTotalNs, which the
// profile does not print.
func ParseHeapProfile(body []byte) (Heap, error) {
	var h Heap
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "TotalAlloc":
			dst = &h.TotalAlloc
		case "Mallocs":
			dst = &h.Mallocs
		case "NumGC":
			dst = &h.NumGC
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return h, fmt.Errorf("proc: malformed PauseNs entry %q", f)
				}
				h.PauseNs += n
			}
			seen++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return h, fmt.Errorf("proc: malformed %s in heap profile: %q", name, val)
		}
		*dst = n
		seen++
	}
	if seen < 4 {
		return h, fmt.Errorf("proc: heap profile carries %d of the 4 MemStats fields wanted", seen)
	}
	return h, nil
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("proc: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("proc: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("proc: read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("proc: GET %s: %s", url, resp.Status)
	}
	return body, nil
}
