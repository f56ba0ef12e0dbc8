package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/mmlp"
	"repro/internal/shard"
)

// The fleet listens on fixed loopback addresses. The router's ring places
// keys by hashing the member strings, so fixed members give the same
// key→shard assignment on every run and on every commit.
const (
	routerAddr = "127.0.0.1:39410"
	shardAAddr = "127.0.0.1:39411"
	shardBAddr = "127.0.0.1:39412"
)

var shardAddrs = []string{shardAAddr, shardBAddr}

// newRing builds the same ring the router builds from its -shards flag.
func newRing() *shard.Ring {
	r, err := shard.New(shardAddrs, shard.DefaultReplicas)
	if err != nil {
		panic(err) // fixed, valid member list
	}
	return r
}

// fleetFlags returns the command lines of the two shards and the router.
func fleetFlags(cacheBytes int64) map[string][]string {
	shardArgs := func(addr string) []string {
		return []string{"-addr", addr, "-workers", "1", "-cache-bytes", strconv.FormatInt(cacheBytes, 10)}
	}
	return map[string][]string{
		"shard-a": shardArgs(shardAAddr),
		"shard-b": shardArgs(shardBAddr),
		"router":  {"-addr", routerAddr, "-shards", strings.Join(shardAddrs, ",")},
	}
}

// proc is one fleet process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// fleet is one booted router plus two shards.
type fleet struct {
	procs  []*proc // shard-a, shard-b, router
	router *proc
	hc     *http.Client
}

// waitPortsFree waits until every fleet address can be bound, so a run
// never races the previous run's processes for the fixed ports.
func waitPortsFree(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, a := range append([]string{routerAddr}, shardAddrs...) {
		for {
			l, err := net.Listen("tcp", a)
			if err == nil {
				l.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet address %s stays busy: %w", a, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// startFleet spawns the shards and the router. Each process logs to its
// own file under logDir.
func startFleet(binDir, logDir, tag string, cacheBytes int64) (*fleet, error) {
	flags := fleetFlags(cacheBytes)
	f := &fleet{hc: &http.Client{Timeout: 2 * time.Second}}
	for _, spec := range []struct{ name, bin, addr string }{
		{"shard-a", "mmlpserve", shardAAddr},
		{"shard-b", "mmlpserve", shardBAddr},
		{"router", "mmlprouter", routerAddr},
	} {
		lf, err := os.Create(filepath.Join(logDir, tag+"-"+spec.name+".log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(filepath.Join(binDir, spec.bin), flags[spec.name]...)
		cmd.Stdout, cmd.Stderr = lf, lf
		if err := cmd.Start(); err != nil {
			lf.Close()
			f.stop()
			return nil, fmt.Errorf("start %s: %w", spec.name, err)
		}
		p := &proc{name: spec.name, addr: spec.addr, cmd: cmd, log: lf, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		f.procs = append(f.procs, p)
	}
	f.router = f.procs[2]
	return f, nil
}

// waitReady polls every process's /healthz until it answers 200. The poll
// backs off from 100µs to 2ms, so readiness is seen within 2ms of the
// listener coming up rather than on a fixed tick.
func (f *fleet) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range f.procs {
		wait := 100 * time.Microsecond
		for {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during start-up (see its log)", p.name)
			default:
			}
			resp, err := f.hc.Get("http://" + p.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v", p.name, timeout)
			}
			time.Sleep(wait)
			wait = min(2*wait, 2*time.Millisecond)
		}
	}
	return nil
}

// stop sends SIGTERM to every process and waits for each to exit,
// escalating to SIGKILL after a grace period.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	}
	f.procs = nil
	f.hc.CloseIdleConnections()
}

// shardPIDs returns the shard process IDs; routerPID the router's.
func (f *fleet) shardPIDs() []int {
	return []int{f.procs[0].cmd.Process.Pid, f.procs[1].cmd.Process.Pid}
}

func (f *fleet) routerPID() int { return f.router.cmd.Process.Pid }

// stats scrapes the router's fleet view: its own counters plus every
// shard's raw block, merged.
func (f *fleet) stats() (*mmlp.FleetStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+routerAddr+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape router /statsz: %w", err)
	}
	defer resp.Body.Close()
	var fs mmlp.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return nil, fmt.Errorf("decode router /statsz: %w", err)
	}
	for _, s := range fs.Shards {
		if !s.OK {
			return nil, fmt.Errorf("router could not scrape shard %s: %s", s.Addr, s.Error)
		}
	}
	return &fs, nil
}

// revision returns the VCS revision the router reports on /healthz, with
// "+dirty" for a modified tree ("unknown" for binaries built without VCS
// information).
func (f *fleet) revision() string {
	resp, err := f.hc.Get("http://" + routerAddr + "/healthz")
	if err != nil {
		return "unknown"
	}
	defer resp.Body.Close()
	var h struct {
		Revision string `json:"revision"`
		Dirty    bool   `json:"dirty"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil || h.Revision == "" {
		return "unknown"
	}
	if h.Dirty {
		return h.Revision + "+dirty"
	}
	return h.Revision
}

// cpuTicks reads a process's user+system CPU time from /proc/<pid>/stat,
// in clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14, utime
	st, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15, stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// vmHWMKiB reads a process's peak resident set size from /proc/<pid>/status.
func vmHWMKiB(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
