package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	clients        = 2 // closed-loop connections; nproc on the reference box
	requestTimeout = 30 * time.Second
	bootTimeout    = 60 * time.Second
)

// target is a server the driver can send requests to and, by pid,
// account CPU and memory for.
type target struct {
	base   string
	pid    int
	setupS float64 // exec to first 200 from /api/stats
	fresh  bool    // just booted: it has published the corpus and nothing else
	stop   func()
}

// buildServer compiles cmd/lodify from the checkout the harness runs
// in. The go build cache makes every build after the first a no-op, so
// "built once" holds across the driver's separate invocations too.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "lodify")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lodify")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lodify: %v\n%s", err, out)
	}
	return bin, nil
}

// live holds the process groups of running servers so that a signal or
// a fatal error can kill them before the harness exits.
var live struct {
	sync.Mutex
	pids map[int]bool
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for pid := range live.pids {
		_ = syscall.Kill(-pid, syscall.SIGKILL) // best effort on the way out
	}
	// The harness must not exit before the servers it started are gone: wait,
	// briefly, for each (bootServer's goroutine reaps them).
	for pid := range live.pids {
		for i := 0; i < 200 && syscall.Kill(pid, 0) == nil; i++ {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// bootServer starts the binary on a free port with the benchmark's
// corpus flags and every other flag at its default, and waits for the
// first 200 from /api/stats.
func bootServer(bin string, logw io.Writer) (*target, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr,
		"-contents", strconv.Itoa(serverContents), "-users", strconv.Itoa(serverUsers), "-seed", strconv.Itoa(serverSeed))
	cmd.Stdout, cmd.Stderr = logw, logw
	// Own process group, killed as a group; Pdeathsig covers a harness
	// that dies without running its exit path.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	pid := cmd.Process.Pid
	live.Lock()
	if live.pids == nil {
		live.pids = map[int]bool{}
	}
	live.pids[pid] = true
	live.Unlock()
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}()
	t := &target{base: "http://" + addr, pid: pid, fresh: true}
	t.stop = func() {
		_ = syscall.Kill(-pid, syscall.SIGKILL) // already gone is fine
		<-exited
		live.Lock()
		delete(live.pids, pid)
		live.Unlock()
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(t.base + "/api/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				t.setupS = time.Since(start).Seconds()
				return t, nil
			}
		}
		select {
		case <-exited:
			t.stop()
			return nil, fmt.Errorf("server exited before answering /api/stats")
		default:
		}
		if time.Since(start) > bootTimeout {
			t.stop()
			return nil, fmt.Errorf("server not ready after %v", bootTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sample is the outcome of one request.
type sample struct {
	ns     int64
	status int // 0: not sent, transport error or timeout
	bytes  int
	rows   int
}

func (s sample) failed() bool { return s.status == 0 || s.status >= 400 }

// drive sends the sequence from `conns` closed-loop connections: each
// takes the next unsent action, sends its requests one after the other
// and waits for every reply. It returns one sample per request, in
// sequence order, and the wall time. Requests not sent by the deadline
// are failures.
func drive(base string, seq *sequence, conns int, deadline time.Time) ([]sample, time.Duration) {
	samples := make([]sample, len(seq.ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: requestTimeout}
			var buf bytes.Buffer
			for {
				a := int(cursor.Add(1)) - 1
				if a >= seq.actions() {
					return
				}
				for i := range seq.action(a) {
					idx := seq.start[a] + i
					if time.Now().Before(deadline) {
						samples[idx] = send(client, base, &seq.ops[idx], &buf)
					}
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func send(client *http.Client, base string, o *op, buf *bytes.Buffer) sample {
	start := time.Now()
	req, err := http.NewRequest(o.Method, base+o.URL, strings.NewReader(o.Body))
	if err != nil {
		return sample{ns: int64(time.Since(start))}
	}
	if o.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return sample{ns: int64(time.Since(start))}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	ns := int64(time.Since(start))
	if err != nil {
		return sample{ns: ns}
	}
	return sample{ns: ns, status: resp.StatusCode, bytes: buf.Len(), rows: bytes.Count(buf.Bytes(), []byte(o.Marker))}
}

// plain is the client of everything outside the measured phases.
var plain = &http.Client{Timeout: requestTimeout}

// get fetches one URL outside the measured phases.
func get(u string) (int, []byte, error) {
	resp, err := plain.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads /metrics into series name -> value, summed over label
// sets (the harness only ever wants a series' total).
func scrape(base string) (map[string]float64, error) {
	status, body, err := get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times: 100 on
// every Linux port Go supports.
const clockTick = 100

// procCPU returns the process's user+system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after ") ".
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procPeakRSS returns the process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
