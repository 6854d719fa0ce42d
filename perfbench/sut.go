package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dais/internal/telemetry"
)

// proc is one spawned system-under-test process (daisd or daisgw).
type proc struct {
	name      string
	cmd       *exec.Cmd
	base      string            // http://host:port, from the listening log line
	resources map[string]string // service kind → abstract name (daisd)
	exited    chan struct{}     // closed once the process is reaped
	waitErr   error
}

// probeClient serves the /healthz and /metrics reads; its timeout keeps
// a wedged process from hanging the run.
var probeClient = &http.Client{Timeout: 5 * time.Second}

var (
	reListening = regexp.MustCompile(`msg="(daisd|daisgw) listening" base=(\S+)`)
	reService   = regexp.MustCompile(`msg="service ready" kind=(\S+) endpoint=\S+ resource=(\S+)`)
)

// spawn starts a binary listening on an ephemeral port, copies its log
// into logDir, and returns once the process has logged its address and
// wantResources hosted resource names, and /healthz answers 200.
func spawn(ctx context.Context, name, bin, logDir string, wantResources int, args ...string) (*proc, error) {
	logFile, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("%s: log file: %w", name, err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The kernel kills the child if the generator dies without running
	// its own cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logFile
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	type started struct {
		base      string
		resources map[string]string
	}
	startedCh := make(chan started, 1)
	go func() {
		// Copy the log to the end so the child never blocks on a full
		// pipe. The listening line carries the bound address; daisd
		// logs its resource names right after it.
		sc := bufio.NewScanner(stderr)
		st := started{resources: map[string]string{}}
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if m := reListening.FindStringSubmatch(line); m != nil && st.base == "" {
				st.base = m[2]
			}
			if m := reService.FindStringSubmatch(line); m != nil {
				st.resources[m[1]] = m[2]
			}
			if !sent && st.base != "" && len(st.resources) >= wantResources {
				sent = true
				startedCh <- st
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining only
		p.waitErr = cmd.Wait()
		logFile.Close()
		close(p.exited)
	}()

	deadline := time.After(60 * time.Second)
	select {
	case st := <-startedCh:
		p.base, p.resources = st.base, st.resources
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %v", name, p.waitErr)
	case <-deadline:
		p.stop()
		return nil, fmt.Errorf("%s: no listening line within 60s", name)
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := probeClient.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // status only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-p.exited:
			return nil, fmt.Errorf("%s exited during start-up: %v", name, p.waitErr)
		case <-deadline:
			p.stop()
			return nil, fmt.Errorf("%s: /healthz not ready within 60s", name)
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		}
	}
}

// stop terminates the process and waits until it has been reaped.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-p.exited
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", p.name)
}

// clockTicks is USER_HZ on Linux, the unit of /proc CPU times.
const clockTicks = 100

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// scrape fetches and parses a process's /metrics exposition.
func scrape(base string) ([]telemetry.Sample, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParsePrometheus(string(body))
}

// hostCPU is the host-wide CPU time split from the first line of
// /proc/stat, in clock ticks. busy is everything but idle and iowait,
// steal included.
type hostCPU struct{ steal, busy, total uint64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var c hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}, err
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			c.total += n
			if i != 3 && i != 4 {
				c.busy += n
			}
		}
		if i == 7 {
			c.steal = n
		}
	}
	return c, nil
}

// stealPct is the share of host CPU time stolen since before.
func (c hostCPU) stealPct(before hostCPU) float64 {
	if c.total <= before.total {
		return 0
	}
	return 100 * float64(c.steal-before.steal) / float64(c.total-before.total)
}
