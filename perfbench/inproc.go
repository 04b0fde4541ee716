package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/fpu"
	"robustify/internal/harness"
)

// campaignOut is one finished campaign as its user sees it.
type campaignOut struct {
	csv    []byte
	fresh  int // trials durably recorded by this campaign
	total  int // trials in its grid
	doneIn time.Duration
	// resultsIn is the time to read the done campaign's table as CSV.
	resultsIn time.Duration
}

// inProcessCampaign runs spec along the robustbench -out path: Compile,
// Open a fresh store, SaveSpec, NewExecution, Run; then TableFromStore
// renders the table a user reads.
func inProcessCampaign(ctx context.Context, spec campaign.Spec, dir string) (out campaignOut, err error) {
	start := time.Now()
	camp, err := campaign.Compile(spec)
	if err != nil {
		return out, err
	}
	st, err := campaign.Open(dir)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close store: %w", cerr)
		}
	}()
	if err := st.SaveSpec(spec); err != nil {
		return out, err
	}
	if err := campaign.NewExecution(camp, st).Run(ctx); err != nil {
		return out, err
	}
	out.doneIn = time.Since(start)
	// A table read takes tens of microseconds; the median of a few reads
	// keeps one descheduling from deciding the sample.
	var reads samples
	var buf bytes.Buffer
	for i := 0; i < resultReads; i++ {
		buf.Reset()
		t := time.Now()
		if err := camp.TableFromStore(st).CSV(&buf); err != nil {
			return out, err
		}
		reads.add(float64(time.Since(t)))
	}
	out.resultsIn = time.Duration(reads.pct(0.5))
	out.csv, out.fresh, out.total = buf.Bytes(), st.Count(), camp.Total()
	return out, nil
}

// resultReads is how often an in-process campaign's table is read.
const resultReads = 5

// A set-up child is the benchmark binary started by setupOnce with
// these variables set: it sets up one campaign and reports when it is
// ready for a first trial.
const (
	setupDirEnv  = "PERFBENCH_SETUP_DIR"
	setupSpecEnv = "PERFBENCH_SETUP_SPEC"
)

// setupChild does a set-up child's work and exits; it returns false at
// once in any other process.
func setupChild() bool {
	dir := os.Getenv(setupDirEnv)
	if dir == "" {
		return false
	}
	if err := setUp(dir, os.Getenv(setupSpecEnv)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench set-up:", err)
		os.Exit(1)
	}
	os.Exit(0)
	return true
}

// setUp follows the robustbench -out path up to a first trial: Compile,
// Open a fresh store and NewExecution, then prints "ready". SaveSpec
// runs after that, so it is not timed: it is one fsync, whose time
// follows the host's disk (0.15 to 2 ms from one moment to the next)
// far more than the program.
func setUp(dir, specJSON string) error {
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return err
	}
	camp, err := campaign.Compile(spec)
	if err != nil {
		return err
	}
	st, err := campaign.Open(dir)
	if err != nil {
		return err
	}
	campaign.NewExecution(camp, st)
	if _, err := os.Stdout.WriteString("ready\n"); err != nil {
		st.Close()
		return err
	}
	if err := st.SaveSpec(spec); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// setupOnce times one set-up as a user of robustbench -out meets it:
// from launching a process to that process being ready for a first
// trial. The process is the benchmark binary, which links the same
// packages, so package initialization counts too. Set-up done within
// one process is a few microseconds of CPU and a few file-system calls,
// and its time moved between runs by a factor of two to ten with the
// host; a process launch is steadier and shows the same work.
func setupOnce(spec campaign.Spec, dir string) (time.Duration, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), setupDirEnv+"="+dir, setupSpecEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up child printed %q: %v", line, rerr)
	}
	return d, nil
}

// setupReps is how often set-up is repeated; setup_s is the median.
// The repetitions are spread over the timed loop, like every other
// timing, rather than made in one burst before it: a burst lasts tens
// of milliseconds, so its median read whatever the host did in them,
// and ten seeds spread by about 0.3.
const setupReps = 30

// setupSample times one more set-up (see setupOnce).
func setupSample(e *env, w *workload, r *runResult) error {
	i := len(r.setup)
	d, err := setupOnce(w.spec(campaignSeed(^e.seed, i)), e.path("setup-%d", i))
	if err != nil {
		return err
	}
	r.setup.addDur(d, time.Second)
	return nil
}

func digestOf(csv []byte) string {
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:])
}

// runInProcess is the untraced loop of an in-process workload: campaigns
// one after another, each with a fresh derived seed, until the run time
// is spent.
func runInProcess(ctx context.Context, e *env, w *workload, r *runResult) error {
	// Syncing first keeps an earlier run's deleted data roots from
	// being written back while this run's campaigns and set-ups create
	// their stores.
	syscall.Sync()
	out, err := inProcessCampaign(ctx, w.spec(campaignSeed(defaultSeed, 0)), e.path("canary"))
	if err != nil {
		return err
	}
	e.checkCanary(w, out.csv, r)

	start := time.Now()
	var paused time.Duration // set-up samples: not part of the loop's wall time
	deadline := start.Add(e.duration())
	for k := 0; k == 0 || time.Now().Before(deadline.Add(paused)); k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		out, err := inProcessCampaign(ctx, w.spec(campaignSeed(e.seed, k)), e.path("c%05d", k))
		r.attempted++
		if err != nil || out.fresh != out.total {
			r.fail("campaign %d: %d/%d trials recorded, err=%v", k, out.fresh, out.total, err)
			continue
		}
		r.trials += out.fresh
		r.campaignMs.addDur(out.doneIn, time.Millisecond)
		r.resultsMs.addDur(out.resultsIn, time.Millisecond)
		if due := float64(setupReps) * float64(time.Since(start)-paused) / float64(e.duration()); float64(len(r.setup)) < min(due, setupReps) {
			t := time.Now()
			if err := setupSample(e, w, r); err != nil {
				return err
			}
			paused += time.Since(t)
		}
	}
	r.wall = time.Since(start) - paused
	for len(r.setup) < setupReps {
		if err := setupSample(e, w, r); err != nil {
			return err
		}
	}
	r.rssMiB = peakRSSMiB("self")
	return nil
}

// trialStats aggregates the traced trials of a run.
type trialStats struct {
	mu      sync.Mutex
	trialMs samples
	flops   uint64
	faults  uint64
	busy    time.Duration // sum of trial times
	slots   time.Duration // harness wall time × workers
}

func (ts *trialStats) add(d time.Duration, u *fpu.Unit) {
	ts.mu.Lock()
	ts.trialMs.addDur(d, time.Millisecond)
	ts.busy += d
	if u != nil {
		ts.flops += u.FLOPs()
		ts.faults += u.Faults()
	}
	ts.mu.Unlock()
}

// unitRecorder remembers the fpu.Unit each trial built, keyed by trial
// seed (unique within a campaign grid), so the trial's FLOPs and faults
// can be read after it returns.
type unitRecorder struct {
	mu    sync.Mutex
	units map[uint64]*fpu.Unit
}

func (ur *unitRecorder) factory(spec campaign.Spec) campaign.UnitFactory {
	return func(rate float64, seed uint64) *fpu.Unit {
		u := spec.FaultModel.Unit(rate, seed)
		ur.mu.Lock()
		ur.units[seed] = u
		ur.mu.Unlock()
		return u
	}
}

func (ur *unitRecorder) take(seed uint64) *fpu.Unit {
	ur.mu.Lock()
	defer ur.mu.Unlock()
	u := ur.units[seed]
	delete(ur.units, seed)
	return u
}

// trialFunc rebuilds a custom spec's trial function through
// campaign.WorkloadByName with the given unit factory.
func trialFunc(spec campaign.Spec, units campaign.UnitFactory) (harness.TrialFunc, error) {
	wl, err := campaign.WorkloadByName(spec.Custom.Workload)
	if err != nil {
		return nil, err
	}
	iters := spec.Custom.Iters
	if iters <= 0 {
		iters = wl.DefaultIters
	}
	return wl.Build(iters, wl.DefaultParams(), units), nil
}

// tracedTrialFunc rebuilds a custom spec's trial function with a
// recording unit factory, and wraps it to time each trial and read its
// FLOP and fault counts.
func tracedTrialFunc(spec campaign.Spec, tr *tracer, trace string, parent int64, ts *trialStats) (harness.TrialFunc, error) {
	ur := &unitRecorder{units: make(map[uint64]*fpu.Unit)}
	fn, err := trialFunc(spec, ur.factory(spec))
	if err != nil {
		return nil, err
	}
	return func(rate float64, seed uint64) float64 {
		start := time.Now()
		v := fn(rate, seed)
		end := time.Now()
		ts.add(end.Sub(start), ur.take(seed))
		tr.leaf(trace, parent, "apps.trial", start, end)
		return v
	}, nil
}

// tracedInProcess is inProcessCampaign with every layer call timed: the
// trial function is rebuilt with a recording unit factory and driven
// through harness.Sweep.RunHooked, whose sink appends to the store the
// way Execution.Run does. It returns the table CSV and the records.
func tracedInProcess(ctx context.Context, spec campaign.Spec, dir string, tr *tracer, trace string, ts *trialStats, lay *layerStats) (csv []byte, recs []campaign.Record, err error) {
	root := tr.id()
	start := time.Now()
	defer func() { tr.record(trace, root, 0, "campaign", start, time.Now()) }()

	t := time.Now()
	camp, err := campaign.Compile(spec)
	if err != nil {
		return nil, nil, err
	}
	lay.compileMs.addDur(time.Since(t), time.Millisecond)
	tr.leaf(trace, root, "campaign.compile", t, time.Now())

	t = time.Now()
	st, err := campaign.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close store: %w", cerr)
		}
	}()
	if err := st.SaveSpec(spec); err != nil {
		return nil, nil, err
	}
	tr.leaf(trace, root, "campaign.open", t, time.Now())

	run := tr.id()
	fn, err := tracedTrialFunc(spec, tr, trace, run, ts)
	if err != nil {
		return nil, nil, err
	}
	u := camp.Plan.Units[0]
	agg, err := harness.AggregatorByName(u.Agg)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var putErr error
	hooks := harness.Hooks{Sink: func(tl harness.Trial) {
		rec := campaign.Record{
			Unit: 0, RateIdx: tl.RateIdx, TrialIdx: tl.TrialIdx,
			Rate: tl.Rate, Seed: tl.Seed, Value: tl.Value, Series: u.Series,
		}
		ps := time.Now()
		_, err := st.Put(rec)
		tr.leaf(trace, run, "campaign.store_put", ps, time.Now())
		mu.Lock()
		recs = append(recs, rec)
		if err != nil && putErr == nil {
			putErr = err
		}
		mu.Unlock()
	}}
	rs := time.Now()
	if _, err := u.Sweep.RunHooked(ctx, fn, agg, hooks); err != nil {
		return nil, nil, err
	}
	re := time.Now()
	tr.record(trace, run, root, "harness.run", rs, re)
	if putErr != nil {
		return nil, nil, putErr
	}
	workers := u.Sweep.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ts.mu.Lock()
	ts.slots += re.Sub(rs) * time.Duration(workers)
	ts.mu.Unlock()

	t = time.Now()
	var buf bytes.Buffer
	if err := camp.TableFromStore(st).CSV(&buf); err != nil {
		return nil, nil, err
	}
	tr.leaf(trace, root, "campaign.table", t, time.Now())
	return buf.Bytes(), recs, nil
}

// tracedInProcessPhase runs each campaign untraced and then traced on the
// same seed until the phase time is spent. The two tables must be
// byte-identical; the ratio of their trial rates is the tracing overhead.
func tracedInProcessPhase(ctx context.Context, e *env, w *workload, d time.Duration, tr *tracer, r *runResult, ts *trialStats, lay *layerStats) error {
	var plainWall, tracedWall time.Duration
	plainTrials, tracedTrials := 0, 0
	deadline := time.Now().Add(d)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		spec := w.spec(campaignSeed(e.seed, k))
		t := time.Now()
		plain, err := inProcessCampaign(ctx, spec, e.path("plain-%05d", k))
		plainWall += time.Since(t)
		plainTrials += plain.fresh
		r.attempted++
		if err != nil {
			r.fail("campaign %d untraced: %v", k, err)
			continue
		}
		t = time.Now()
		csv, recs, err := tracedInProcess(ctx, spec, e.path("traced-%05d", k), tr, fmt.Sprintf("a%05d", k), ts, lay)
		tracedWall += time.Since(t)
		tracedTrials += len(recs)
		switch {
		case err != nil:
			r.fail("campaign %d traced: %v", k, err)
		case !bytes.Equal(csv, plain.csv):
			r.fail("campaign %d: traced table differs from untraced table", k)
		default:
			lay.keep(spec, recs)
		}
	}
	if plainTrials > 0 && tracedTrials > 0 {
		plainRate := float64(plainTrials) / plainWall.Seconds()
		tracedRate := float64(tracedTrials) / tracedWall.Seconds()
		lay.overhead = 1 - tracedRate/plainRate
	}
	return nil
}

// replayStores replays kept campaigns' records into fresh stores,
// timing Store.Put, the reopen (Store.Open) and TableFromStore.
func replayStores(e *env, lay *layerStats) error {
	records, bytesTotal := 0, int64(0)
	var openPerRec samples
	for i, kc := range lay.kept {
		dir := e.path("replay-%03d", i)
		st, err := campaign.Open(dir)
		if err != nil {
			return err
		}
		for _, rec := range kc.recs {
			t := time.Now()
			if _, err := st.Put(rec); err != nil {
				st.Close()
				return err
			}
			lay.putUs.addDur(time.Since(t), time.Microsecond)
		}
		if err := st.Close(); err != nil {
			return err
		}
		size, err := fileSize(filepath.Join(dir, "trials.jsonl"))
		if err != nil {
			return err
		}
		bytesTotal += size
		records += len(kc.recs)

		t := time.Now()
		st, err = campaign.Open(dir)
		if err != nil {
			return err
		}
		openPerRec.add(float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(kc.recs)))
		camp, err := campaign.Compile(kc.spec)
		if err != nil {
			st.Close()
			return err
		}
		t = time.Now()
		camp.TableFromStore(st)
		lay.tableMs.addDur(time.Since(t), time.Millisecond)
		if err := st.Close(); err != nil {
			return err
		}
	}
	if records > 0 {
		lay.storeBytesPerTrial = float64(bytesTotal) / float64(records)
	}
	lay.openUsPerRecord = openPerRec.pct(0.5)
	return nil
}

// allocCampaigns bounds the kept campaigns whose trials allocProbe reruns.
const allocCampaigns = 10

// allocProbe reruns trial 0 of every rate of the first kept campaigns
// through the rebuilt trial function alone, one after another and with
// no tracer or store, and returns the heap allocations per trial
// (runtime.MemStats.Mallocs). Nothing else runs while it measures.
func allocProbe(lay *layerStats) (float64, error) {
	type call struct {
		fn   harness.TrialFunc
		rate float64
		seed uint64
	}
	var calls []call
	for _, kc := range lay.kept[:min(len(lay.kept), allocCampaigns)] {
		fn, err := trialFunc(kc.spec, kc.spec.FaultModel.Unit)
		if err != nil {
			return 0, err
		}
		for _, rec := range kc.recs {
			if rec.TrialIdx == 0 {
				calls = append(calls, call{fn, rec.Rate, rec.Seed})
			}
		}
	}
	if len(calls) == 0 {
		return 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, c := range calls {
		sinkF = c.fn(c.rate, c.seed)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(calls)), nil
}
