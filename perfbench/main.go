// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a single load-generating process, checks every
// table the program produces, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the benchmark first):
//
//	bash perfbench/run.sh -workload sort-faulty -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -workload all -seconds 20
//	bash perfbench/run.sh -steady 10 -workload lp-kernel -seconds 20
//	bash perfbench/run.sh -describe > BENCHMARK.json
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runSeconds is how long one run measures by default.
const runSeconds = 30

// env is one benchmark invocation's configuration.
type env struct {
	root    string // repository root: the tree under test
	build   string // build and scratch directory inside the checkout
	tmp     string // this run's scratch directory, removed at exit
	seed    uint64
	seconds float64
	out     io.Writer // human-readable report lines
	bins    string    // directory holding robustd and robustworker once built

	// Test seams: tamper rewrites canary and fleet tables before they
	// are checked, workerArgs are appended to robustworker's command line.
	tamper     func([]byte) []byte
	workerArgs []string
}

func (e *env) path(format string, a ...any) string {
	return filepath.Join(e.tmp, fmt.Sprintf(format, a...))
}

func (e *env) duration() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

func (e *env) tamperCSV(csv []byte) []byte {
	if e.tamper != nil {
		return e.tamper(csv)
	}
	return csv
}

// checkCanary compares the canary campaign's table with the committed
// digest. The canary counts as one attempted campaign.
func (e *env) checkCanary(w *workload, csv []byte, r *runResult) {
	r.attempted++
	if got := digestOf(e.tamperCSV(csv)); got != w.digest {
		r.fail("canary table digest %s, committed %s", got, w.digest)
	}
}

// runResult is what one run measured and how many of its campaigns
// failed a check.
type runResult struct {
	attempted, failed int
	failures          []string

	trials                int // fresh trials durably recorded in the timed loop
	wall                  time.Duration
	campaignMs, resultsMs samples
	setup                 samples // seconds
	rssMiB                float64
}

// fail counts one failed campaign. Its latency counts as infinite, so it
// misses every latency limit.
func (r *runResult) fail(format string, a ...any) {
	r.failed++
	r.campaignMs.add(math.Inf(1))
	r.failures = append(r.failures, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if setupChild() {
		return
	}
	var (
		wname    = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", runSeconds, "measured time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root (the tree under test)")
		build    = flag.String("build", ".bench_build", "build and scratch directory")
		steady   = flag.Int("steady", 0, "repeat the workload N times on seeds seed..seed+N-1 and print each metric's spread")
		describe = flag.Bool("describe", false, "print BENCHMARK.json")
	)
	flag.Parse()
	if err := run(*wname, *seed, *seconds, *trace, *root, *build, *steady, *describe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wname string, seed uint64, seconds float64, trace int, root, build string, steady int, describe bool) error {
	switch {
	case describe:
		b, err := benchmarkJSON(runSeconds)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	case steady > 0:
		return runSteady(wname, seed, seconds, trace, root, build, steady)
	case wname == "all":
		for _, w := range workloads {
			fmt.Printf("== %s\n", w.name)
			if _, err := runChild(w.name, seed, seconds, trace, root, build, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	w, ok := workloadByName(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAll()
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{root: root, build: build, tmp: tmp, seed: seed, seconds: seconds, out: os.Stdout}
	line, err := runWorkload(ctx, e, w, trace == 1)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runWorkload runs one workload and returns the result line; it prints
// the run context, every metric with unit and sample count, and each
// failed check.
func runWorkload(ctx context.Context, e *env, w *workload, traced bool) (*resultLine, error) {
	printContext(e, w)
	cpu0 := cpuTicks()
	defer func() {
		// Steal is time the host did not run this VM's vCPUs although
		// they were runnable; it slows a run without any change in the
		// program, so each run reports it as context.
		d := cpuTicks()
		if len(d) != len(cpu0) {
			return
		}
		total := 0.0
		for i := range d {
			d[i] -= cpu0[i]
			total += d[i]
		}
		if total > 0 && len(d) > 7 {
			fmt.Fprintf(e.out, "host cpu busy=%.3f idle=%.3f steal=%.3f\n", (d[0]+d[2])/total, d[3]/total, d[7]/total)
		}
	}()
	r := &runResult{}
	values := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		v, err := runTraced(ctx, e, w, r)
		if err != nil {
			return nil, err
		}
		values = v
	} else {
		var err error
		if w.kind == fleet {
			err = runFleet(ctx, e, w, r)
		} else {
			err = runInProcess(ctx, e, w, r)
		}
		if err != nil {
			return nil, err
		}
		values["trials_per_s"] = float64(r.trials) / r.wall.Seconds()
		values["campaign_ms_p50"] = r.campaignMs.pct(0.5)
		values["campaign_ms_p90"] = r.campaignMs.pct(0.9)
		values["results_ms_p50"] = r.resultsMs.pct(0.5)
		values["setup_s"] = r.setup.pct(0.5)
		values["peak_rss_mb"] = r.rssMiB
	}
	line := &resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	counts := map[string]int{
		"campaign_ms_p50": len(r.campaignMs), "campaign_ms_p90": len(r.campaignMs),
		"results_ms_p50": len(r.resultsMs), "setup_s": len(r.setup),
	}
	for _, m := range defs {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a failed or empty run gets here; correct is false or
			// the sample set is empty. JSON has no NaN or Inf.
			v = -1
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		n := ""
		if c, ok := counts[m.Name]; ok && !traced {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(e.out, "%-12s %-34s %16.6g %-9s %s\n", w.name, m.Name, v, m.Unit, n)
	}
	if !traced {
		fmt.Fprintf(e.out, "%-12s %-34s %16.6g %-9s (campaigns n=%d; tail percentile with >=10 samples beyond: p%.0f = %.6g ms)\n",
			w.name, "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio",
			r.attempted, 100*tailPct(len(r.campaignMs)), r.campaignMs.pct(tailPct(len(r.campaignMs))))
	}
	for _, f := range r.failures {
		fmt.Fprintf(e.out, "FAILED %s\n", f)
	}
	return line, nil
}

// printContext prints the run-context record. The calibration loop is
// the one BENCH_2026-08-07.json normalizes by; it is printed as context
// only and divides nothing.
func printContext(e *env, w *workload) {
	workers, clients := nproc, 0
	if w.kind == fleet {
		workers, clients = 1, fleetClients
	}
	commit := "unknown"
	if abs, err := filepath.Abs(e.root); err == nil {
		// The ceiling keeps git from reading a repository above the
		// checkout when the checkout itself is not one.
		cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	b, _ := json.Marshal(map[string]any{
		"workload":       w.name,
		"seed":           e.seed,
		"seconds":        e.seconds,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_commit":     commit,
		"trial_workers":  workers,
		"http_clients":   clients,
		"calibration_ns": calibrate().Nanoseconds(),
	})
	fmt.Fprintf(e.out, "context %s\n", b)
}

// cpuTicks reads the aggregate cpu line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...).
func cpuTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// calibrate is the fixed scalar loop of bench_baseline_test.go.
func calibrate() time.Duration {
	const iters = 1 << 24
	start := time.Now()
	x, s := uint64(0x9e3779b97f4a7c15), 0.0
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += float64(x&0xffff) * 1.0000001
	}
	sinkU, sinkF = x, s
	return time.Since(start)
}

// runChild runs one workload in a fresh benchmark process, copying its
// report to out, and returns its result line.
func runChild(wname string, seed uint64, seconds float64, trace int, root, build string, out io.Writer) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", wname, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-root", root, "-build", build)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	out.Write(b)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", wname, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", wname, seed, err)
	}
	return &line, nil
}

// hostDrift is the calibration-loop spread above which -steady marks a
// batch as unresolved: the host's own speed moved during it.
const hostDrift = 0.1

// hostContext reads the calibration loop's time and the host's steal
// share from one run's report.
func hostContext(report string) (calibrationNs, steal float64) {
	calibrationNs, steal = math.NaN(), math.NaN()
	for _, l := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(l, "context "); ok {
			var c struct {
				CalibrationNs float64 `json:"calibration_ns"`
			}
			if json.Unmarshal([]byte(rest), &c) == nil {
				calibrationNs = c.CalibrationNs
			}
		}
		if _, rest, ok := strings.Cut(l, "steal="); ok && strings.HasPrefix(l, "host cpu ") {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				steal = v
			}
		}
	}
	return calibrationNs, steal
}

// runSteady repeats a workload on n seeds, each in a fresh process, and
// prints each metric's median, quartiles and IQR ÷ median, flagging any
// end-to-end metric whose spread exceeds its bound. Below the metrics it
// prints the same for the calibration loop and the host's steal share,
// which are context, and marks the batch unresolved when the calibration
// loop's own spread shows that the host changed speed during it.
func runSteady(wname string, seed uint64, seconds float64, trace int, root, build string, n int) error {
	w, ok := workloadByName(wname)
	if !ok {
		return fmt.Errorf("unknown workload %q", wname)
	}
	vals := map[string][]float64{}
	var calibration, steal []float64
	failed := 0
	for i := 0; i < n; i++ {
		var report bytes.Buffer
		line, err := runChild(w.name, seed+uint64(i), seconds, trace, root, build, &report)
		if err != nil {
			return err
		}
		_, host, _ := strings.Cut(report.String(), "host cpu ")
		host, _, _ = strings.Cut(host, "\n")
		c, st := hostContext(report.String())
		calibration, steal = append(calibration, c), append(steal, st)
		if !line.Correct {
			failed++
		}
		for name, m := range line.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		fmt.Printf("run %d seed %d correct=%v %s", i+1, seed+uint64(i), line.Correct, host)
		for _, m := range endToEnd {
			if v, ok := line.Metrics[m.Name]; ok {
				fmt.Printf(" %s=%.6g", m.Name, v.Value)
			}
		}
		fmt.Println()
	}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	w2 := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w2, "%-34s %14s %14s %14s %10s %8s\n", "metric", "q1", "median", "q3", "iqr/med", "bound")
	row := func(name string, vs []float64, bound float64) float64 {
		q1, med, q3 := quartiles(vs)
		spread := (q3 - q1) / math.Abs(med)
		flag := ""
		if bound > 0 && !(spread <= bound) {
			flag = "  SPREAD EXCEEDS BOUND"
		}
		fmt.Fprintf(w2, "%-34s %14.6g %14.6g %14.6g %10.4f %8.3g%s\n", name, q1, med, q3, spread, bound, flag)
		return spread
	}
	var wide []string
	for _, name := range names {
		if spread := row(name, vals[name], bounds[name]); bounds[name] > 0 && !(spread <= bounds[name]) {
			wide = append(wide, name)
		}
	}
	fmt.Fprintln(w2, "context (not metrics):")
	drift := row("calibration_ns", calibration, 0)
	row("host_steal", steal, 0)
	if !(drift <= hostDrift) {
		fmt.Fprintf(w2, "UNRESOLVED: the calibration loop spread %.3f (over %.2f), so the host changed speed during this batch; its spreads and medians say more about the host than the program\n", drift, hostDrift)
	}
	w2.Flush()
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed a correctness check", failed, n)
	}
	if len(wide) > 0 {
		return errors.New("spread exceeds bound: " + strings.Join(wide, ", "))
	}
	return nil
}
