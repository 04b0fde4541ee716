package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"robustify/internal/campaign"
	"robustify/internal/dispatch"
	"robustify/internal/harness"
	"robustify/internal/obs"
)

const (
	// fleetClients is the number of closed-loop HTTP clients (at most nproc).
	fleetClients = 2
	// statusPoll is the clients' fixed status-poll interval. The SSE
	// stream ticks every 250 ms, too coarse for ~70 ms campaigns.
	statusPoll = 5 * time.Millisecond
	// warmCampaigns fill the data root before robustd boots, so set-up
	// includes the recovery scan.
	warmCampaigns = 40
	// fleetBoots is how often set-up is repeated; setup_s is the median.
	fleetBoots = 7
	// workerPoll is the worker's idle poll (robustworker -poll; the
	// benchmark's own worker in the traced run uses it too). The 250 ms
	// default would make every campaign wait out one idle sleep, so the
	// campaign time would measure that constant instead of the layers.
	workerPoll = 5 * time.Millisecond
	// reportBatch is robustworker's default report batch size.
	reportBatch = 32
	// shardSize is robustd's -shard-size: one rate cell of fleet-tiny per
	// lease. At the default 16, each ~90 ms campaign is ~38 lease and
	// report round trips between two mostly idle processes, and the
	// run's speed follows the host's vCPU wake-up latency (steal) more
	// than the program: under 4.5% → 19% steal, trials/s fell 26% at
	// size 16 and 17% at size 200.
	shardSize = 200
	// rssCampaigns is the campaign count at which the fleet's peak RSS is
	// read. robustd keeps every campaign it ran, so its memory grows with
	// the campaigns a run completes; reading it at a fixed count keeps
	// peak_rss_mb from echoing throughput.
	rssCampaigns = 100
)

// buildBinaries builds robustd and robustworker from the tree under test.
func buildBinaries(e *env) (string, error) {
	if e.bins != "" {
		return e.bins, nil
	}
	dir := e.path("bin")
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/robustd", "./cmd/robustworker")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build robustd and robustworker: %v\n%s", err, out)
	}
	e.bins = dir
	return dir, nil
}

// populate fills a data root with finished campaigns of the workload,
// with seeds no timed campaign uses, through an in-process Manager.
func populate(root string, w *workload, seed uint64, n int) error {
	m, err := campaign.NewManager(root, 2)
	if err != nil {
		return err
	}
	defer m.Close()
	for k := 0; k < n; k++ {
		id, err := m.Submit(w.spec(campaignSeed(^seed, k)))
		if err != nil {
			return err
		}
		if err := m.Wait(id); err != nil {
			return err
		}
	}
	return nil
}

// fleetProcs is a running robustd and, unless the benchmark plays the
// worker itself, one robustworker.
type fleetProcs struct {
	base   string
	daemon *child
	worker *child
}

func (f *fleetProcs) stop() {
	if f.worker != nil {
		f.worker.stop()
	}
	if f.daemon != nil {
		f.daemon.stop()
	}
}

// startFleet launches robustd on root (port chosen by the kernel) and,
// with worker set, one robustworker; it returns once the worker has
// registered (or the daemon listens). The elapsed time is the fleet's
// set-up time. On error every started process is stopped.
func startFleet(e *env, root string, worker bool) (f *fleetProcs, took time.Duration, err error) {
	bins, err := buildBinaries(e)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f = &fleetProcs{}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	f.daemon, err = spawn(e.path("robustd-%d.log", time.Now().UnixNano()), filepath.Join(bins, "robustd"),
		"-addr", "127.0.0.1:0", "-data", root, "-workers-expected", "1", "-shard-size", strconv.Itoa(shardSize))
	if err != nil {
		return f, 0, err
	}
	select {
	case addr := <-f.daemon.addr:
		f.base = "http://" + addr
	case <-f.daemon.exited:
		return f, 0, fmt.Errorf("robustd exited before listening: %v", f.daemon.waitErr)
	case <-time.After(60 * time.Second):
		return f, 0, errors.New("robustd did not listen within 60s")
	}
	if !worker {
		return f, time.Since(start), nil
	}
	args := append([]string{"-coordinator", f.base, "-parallel", "1", "-poll", workerPoll.String(), "-name", "perfbench-worker"}, e.workerArgs...)
	f.worker, err = spawn(e.path("robustworker-%d.log", time.Now().UnixNano()), filepath.Join(bins, "robustworker"), args...)
	if err != nil {
		return f, 0, err
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	timeout := time.After(60 * time.Second)
	for {
		var ws []json.RawMessage
		if err := getJSON(hc, f.base+"/workers", &ws); err == nil && len(ws) > 0 {
			return f, time.Since(start), nil
		}
		select {
		case <-f.worker.exited:
			return f, 0, fmt.Errorf("robustworker exited before registering: %v", f.worker.waitErr)
		case <-timeout:
			return f, 0, errors.New("robustworker did not register within 60s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	res, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, res.Status)
	}
	return json.Unmarshal(b, v)
}

// httpClient is one closed-loop user of robustd with its own connection.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	// submitMs and statusMs time single requests (traced run only).
	submitMs, statusMs samples
}

func newHTTPClient(base string, tr *tracer) *httpClient {
	return &httpClient{
		base: base,
		tr:   tr,
		hc:   &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer.
func (c *httpClient) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, res.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// campaign submits spec, polls its status at a fixed interval until it
// is done, then fetches the table as CSV.
func (c *httpClient) campaign(ctx context.Context, spec campaign.Spec) (out campaignOut, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	start := time.Now()
	root := c.tr.id()
	b, err := c.do(ctx, http.MethodPost, "/campaigns", body)
	submitted := time.Now()
	if err != nil {
		return out, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return out, fmt.Errorf("submit answer %q: %w", b, err)
	}
	trace := sub.ID
	defer func() { c.tr.record(trace, root, 0, "client.campaign", start, time.Now()) }()
	c.tr.leaf(trace, root, "campaign.http_submit", start, submitted)
	c.submitMs.addDur(submitted.Sub(start), time.Millisecond)
	var st struct {
		State    string            `json:"state"`
		Error    string            `json:"error"`
		Progress campaign.Progress `json:"progress"`
	}
	for {
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-time.After(statusPoll):
		}
		t := time.Now()
		b, err := c.do(ctx, http.MethodGet, "/campaigns/"+sub.ID, nil)
		c.tr.leaf(trace, root, "campaign.http_status", t, time.Now())
		c.statusMs.addDur(time.Since(t), time.Millisecond)
		if err != nil {
			return out, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return out, err
		}
		if st.State == campaign.StateDone {
			break
		}
		if st.State != campaign.StateQueued && st.State != campaign.StateRunning {
			return out, fmt.Errorf("campaign %s ended %s: %s", sub.ID, st.State, st.Error)
		}
	}
	out.doneIn = time.Since(start)
	t := time.Now()
	out.csv, err = c.do(ctx, http.MethodGet, "/campaigns/"+sub.ID+"/results?format=csv", nil)
	out.resultsIn = time.Since(t)
	c.tr.leaf(trace, root, "campaign.http_results", t, time.Now())
	out.fresh, out.total = st.Progress.Done, st.Progress.Total
	return out, err
}

// fleetDone is one finished fleet campaign kept for the table check.
type fleetDone struct {
	spec campaign.Spec
	csv  []byte
}

// runClients runs fleetClients closed loops until deadline. Campaign k
// gets seed campaignSeed(seed, k), whichever client runs it.
// onDone, if non-nil, runs (under the results lock) after each
// successful campaign with the number completed so far.
func runClients(ctx context.Context, e *env, base string, w *workload, deadline time.Time, tr *tracer, r *runResult, onDone func(n int)) (done []fleetDone, clients []*httpClient) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < fleetClients; i++ {
		c := newHTTPClient(base, tr)
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for k := int(next.Add(1) - 1); k == 0 || time.Now().Before(deadline); k = int(next.Add(1) - 1) {
				if ctx.Err() != nil {
					return
				}
				spec := w.spec(campaignSeed(e.seed, k))
				out, err := c.campaign(ctx, spec)
				mu.Lock()
				r.attempted++
				if err != nil || out.fresh != out.total {
					r.fail("fleet campaign %d: %d/%d trials, err=%v", k, out.fresh, out.total, err)
				} else {
					r.trials += out.fresh
					r.campaignMs.addDur(out.doneIn, time.Millisecond)
					r.resultsMs.addDur(out.resultsIn, time.Millisecond)
					done = append(done, fleetDone{spec, e.tamperCSV(out.csv)})
					if onDone != nil {
						onDone(len(done))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, clients
}

// checkFleetTables compares every fleet table with the same spec built
// in-process by Plan.Build. Outside timing.
func checkFleetTables(done []fleetDone, r *runResult) error {
	for i, d := range done {
		camp, err := campaign.Compile(d.spec)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := camp.Plan.Build().CSV(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), d.csv) {
			r.fail("fleet campaign %d (seed %d): table differs from in-process Plan.Build", i, d.spec.Seed)
		}
	}
	return nil
}

// runFleet is the untraced fleet-tiny loop: robustd + one robustworker,
// two HTTP clients submitting campaigns back to back.
func runFleet(ctx context.Context, e *env, w *workload, r *runResult) error {
	if _, err := buildBinaries(e); err != nil {
		return err
	}
	root := e.path("data")
	if err := populate(root, w, e.seed, warmCampaigns); err != nil {
		return err
	}
	var f *fleetProcs
	for i := 0; i < fleetBoots; i++ {
		if f != nil {
			f.stop()
		}
		syscall.Sync() // see runInProcess
		var took time.Duration
		var err error
		if f, took, err = startFleet(e, root, true); err != nil {
			return err
		}
		r.setup.add(took.Seconds())
	}
	defer f.stop()

	cc := newHTTPClient(f.base, nil)
	canary, err := cc.campaign(ctx, w.spec(campaignSeed(defaultSeed, 0)))
	cc.close()
	if err != nil {
		return fmt.Errorf("canary campaign: %w", err)
	}
	e.checkCanary(w, canary.csv, r)

	rss := func() float64 {
		return peakRSSMiB(strconv.Itoa(f.daemon.pid())) + peakRSSMiB(strconv.Itoa(f.worker.pid()))
	}
	start := time.Now()
	done, _ := runClients(ctx, e, f.base, w, start.Add(e.duration()), nil, r, func(n int) {
		if n == rssCampaigns {
			r.rssMiB = rss()
		}
	})
	r.wall = time.Since(start)
	if r.rssMiB == 0 {
		r.rssMiB = rss()
	}
	f.stop()
	return checkFleetTables(done, r)
}

// benchWorker plays robustworker through dispatch.Client, the client
// robustworker uses, so every Register/Lease/Report round trip is timed.
// Shards run one trial at a time, like robustworker -parallel 1.
type benchWorker struct {
	cl    *dispatch.Client
	tr    *tracer
	trial *trialStats

	leaseMs, reportMs samples
	leaseReqs, leases int
	trials, requeued  int
	errs              int
}

func (bw *benchWorker) run(ctx context.Context) {
	type campaignFn struct {
		camp *campaign.Campaign
		fn   harness.TrialFunc
	}
	fns := make(map[string]*campaignFn)
	seen := make(map[string]bool)
	for ctx.Err() == nil {
		if !bw.cl.Registered() {
			if err := bw.cl.Register(ctx); err != nil && ctx.Err() == nil {
				bw.errs++
				sleepCtx(ctx, workerPoll)
			}
			continue
		}
		t := time.Now()
		lease, err := bw.cl.Lease(ctx)
		bw.leaseReqs++
		bw.leaseMs.addDur(time.Since(t), time.Millisecond)
		switch {
		case err != nil && ctx.Err() != nil:
			return
		case errors.Is(err, dispatch.ErrUnknownWorker):
			bw.errs++
			bw.cl.Forget()
			continue
		case err != nil:
			bw.errs++
			sleepCtx(ctx, workerPoll)
			continue
		case lease == nil:
			sleepCtx(ctx, workerPoll)
			continue
		}
		trace := lease.Campaign
		bw.tr.leaf(trace, 0, "dispatch.lease", t, time.Now())
		bw.leases++
		key := fmt.Sprintf("%s/%d/%d", lease.Campaign, lease.Shard.Unit, lease.Shard.Start)
		if seen[key] {
			bw.requeued++
		}
		seen[key] = true
		cf := fns[lease.Campaign]
		if cf == nil {
			spec, err := campaign.ParseSpec(lease.Spec)
			if err != nil {
				bw.errs++
				continue
			}
			camp, err := campaign.Compile(spec)
			if err != nil {
				bw.errs++
				continue
			}
			cf = &campaignFn{camp: camp}
			if cf.fn, err = tracedTrialFunc(spec, bw.tr, trace, 0, bw.trial); err != nil {
				bw.errs++
				continue
			}
			fns[lease.Campaign] = cf
		}
		bw.shard(ctx, lease, cf.camp, cf.fn)
	}
}

// shard executes one leased shard and reports it in batches.
func (bw *benchWorker) shard(ctx context.Context, lease *dispatch.LeaseResponse, camp *campaign.Campaign, fn harness.TrialFunc) {
	sh := lease.Shard
	if sh.Unit < 0 || sh.Unit >= len(camp.Plan.Units) {
		bw.errs++
		return
	}
	u := camp.Plan.Units[sh.Unit]
	trials := dispatch.TrialsPerCell(u.Sweep.Trials)
	skip := make(map[int]bool, len(sh.Skip))
	for _, i := range sh.Skip {
		skip[i] = true
	}
	report := func(batch []dispatch.TrialResult, done bool) bool {
		t := time.Now()
		resp, err := bw.cl.Report(ctx, lease.Campaign, lease.Lease, batch, done)
		bw.reportMs.addDur(time.Since(t), time.Millisecond)
		bw.tr.leaf(lease.Campaign, 0, "dispatch.report", t, time.Now())
		if err != nil || resp.Rejected > 0 {
			bw.errs++
			return false
		}
		return !resp.Lost
	}
	var batch []dispatch.TrialResult
	for idx := sh.Start; idx < sh.Start+sh.Count; idx++ {
		if skip[idx] {
			continue
		}
		ri, ti := idx/trials, idx%trials
		res := dispatch.TrialResult{
			Unit: sh.Unit, RateIdx: ri, TrialIdx: ti,
			Rate: u.Sweep.Rates[ri], Seed: u.Sweep.TrialSeed(ri, ti),
		}
		res.Value = fn(res.Rate, res.Seed)
		bw.trials++
		batch = append(batch, res)
		if len(batch) == reportBatch {
			if !report(batch, false) {
				return
			}
			batch = nil
		}
	}
	report(batch, true)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// tracedFleetPhase runs the workload's campaigns on robustd with the
// benchmark as the worker, timing every HTTP round trip. Afterwards it
// measures the telemetry sidecar bytes and the recovery scan
// (campaign.NewManager) over the data root the phase left behind.
func tracedFleetPhase(ctx context.Context, e *env, w *workload, d time.Duration, tr *tracer, r *runResult, lay *layerStats) error {
	root := e.path("traced-data")
	if w.kind == fleet {
		if err := populate(root, w, e.seed, warmCampaigns); err != nil {
			return err
		}
	}
	f, _, err := startFleet(e, root, false)
	if err != nil {
		return err
	}
	defer f.stop()
	bw := &benchWorker{cl: dispatch.NewClient(f.base, "perfbench-traced"), tr: tr, trial: &trialStats{}}
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw.run(wctx)
	}()
	done, clients := runClients(ctx, e, f.base, w, time.Now().Add(d), tr, r, nil)
	cancel()
	wg.Wait()
	f.stop()

	for _, c := range clients {
		lay.submitMs = append(lay.submitMs, c.submitMs...)
		lay.statusMs = append(lay.statusMs, c.statusMs...)
	}
	lay.leaseMs, lay.reportMs = bw.leaseMs, bw.reportMs
	lay.leaseReqs, lay.leases, lay.leasedTrials, lay.requeued = bw.leaseReqs, bw.leases, bw.trials, bw.requeued
	if bw.errs > 0 {
		r.fail("traced worker: %d failed dispatch calls", bw.errs)
	}

	var telemetry int64
	err = filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || de.Name() != obs.TelemetryFile {
			return err
		}
		size, err := fileSize(p)
		telemetry += size
		return err
	})
	if err != nil {
		return err
	}
	if bw.trials > 0 {
		lay.telemetryBytesPerTrial = float64(telemetry) / float64(bw.trials)
	}
	t := time.Now()
	m, err := campaign.NewManager(root, 4)
	if err != nil {
		return err
	}
	took := time.Since(t)
	if n := len(m.List()); n > 0 {
		lay.recoverMsPerCampaign = float64(took) / 1e6 / float64(n)
	}
	m.Close()
	return checkFleetTables(done, r)
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
