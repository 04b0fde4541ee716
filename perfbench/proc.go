package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one robustd or robustworker process the benchmark started.
// Its combined output goes to a log file; robustd's "listening on"
// line is picked out so the daemon can bind port 0 and report the port
// the kernel chose.
type child struct {
	cmd      *exec.Cmd
	addr     chan string
	exited   chan struct{}
	scanned  chan struct{}
	waitErr  error
	stopOnce sync.Once
}

// live holds every started child that has not been stopped, so that
// stopAll can end them on any exit path.
var live = struct {
	sync.Mutex
	m map[*child]struct{}
}{m: make(map[*child]struct{})}

// spawn starts bin with args. The child gets SIGKILL if the benchmark
// dies without stopping it (Pdeathsig), as a backstop to stopAll.
func spawn(logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = w, w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		r.Close()
		w.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	w.Close()
	c := &child{
		cmd:     cmd,
		addr:    make(chan string, 1),
		exited:  make(chan struct{}),
		scanned: make(chan struct{}),
	}
	live.Lock()
	live.m[c] = struct{}{}
	live.Unlock()
	go c.scan(r, logf)
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// scan copies the child's output to its log until the child exits.
func (c *child) scan(r *os.File, logf *os.File) {
	defer close(c.scanned)
	defer logf.Close()
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logf, line)
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			addr, _, _ := strings.Cut(rest, ",")
			select {
			case c.addr <- addr:
			default:
			}
		}
	}
	// Keep draining so a child never blocks on a full pipe.
	io.Copy(io.Discard, r)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop ends the child by its pid: SIGTERM, then SIGKILL after a grace
// period. It returns once the process has been reaped.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		select {
		case <-c.exited:
		default:
			c.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-c.exited:
			case <-time.After(10 * time.Second):
				c.cmd.Process.Kill()
				<-c.exited
			}
		}
		<-c.scanned
		live.Lock()
		delete(live.m, c)
		live.Unlock()
	})
}

// stopAll stops every child still running.
func stopAll() {
	live.Lock()
	cs := make([]*child, 0, len(live.m))
	for c := range live.m {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self"
// or a pid) from /proc.
func peakRSSMiB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
