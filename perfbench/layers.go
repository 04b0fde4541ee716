package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"robustify/internal/apps/apsp"
	"robustify/internal/campaign"
	"robustify/internal/fpu"
)

// keptCampaign is a traced campaign's spec and records, replayed into a
// fresh store to time the store layer on its own.
type keptCampaign struct {
	spec campaign.Spec
	recs []campaign.Record
}

// maxKept bounds the campaigns replayed per traced run.
const maxKept = 20

// layerStats collects the traced run's per-layer measurements.
type layerStats struct {
	compileMs, putUs, tableMs samples
	kept                      []keptCampaign

	storeBytesPerTrial, openUsPerRecord float64
	telemetryBytesPerTrial              float64
	recoverMsPerCampaign                float64
	overhead                            float64

	submitMs, statusMs, leaseMs, reportMs     samples
	leaseReqs, leases, leasedTrials, requeued int

	faultyAddNs, reliableAddNs, dotNsPerFlop float64
	allocsPerTrial                           float64
}

func (l *layerStats) keep(spec campaign.Spec, recs []campaign.Record) {
	if len(l.kept) < maxKept {
		l.kept = append(l.kept, keptCampaign{spec, recs})
	}
}

// Package-level sinks keep the measured loops from being optimized away.
var (
	sinkF float64
	sinkU uint64
)

// medianOf runs fn reps times and returns the median result.
func medianOf(reps int, fn func() float64) float64 {
	var s samples
	for i := 0; i < reps; i++ {
		s.add(fn())
	}
	return s.pct(0.5)
}

// addNs times n calls of Unit.Add.
func addNs(u *fpu.Unit, n int) float64 {
	x := 1.0
	start := time.Now()
	for i := 0; i < n; i++ {
		x = u.Add(x, 1e-9)
	}
	d := time.Since(start)
	sinkF = x
	return float64(d.Nanoseconds()) / float64(n)
}

// fpuProbes times single fpu.Unit methods: Add on a reliable unit and at
// fault rate 0.5 (sort-faulty's dense rate), and Dot at the length of
// lp/apsp's LP rows (n=5 nodes) at fault rate 1e-4.
func fpuProbes(seed uint64, lay *layerStats) {
	lay.reliableAddNs = medianOf(7, func() float64 { return addNs(fpu.New(), 2_000_000) })
	lay.faultyAddNs = medianOf(7, func() float64 {
		return addNs(fpu.New(fpu.WithFaultRate(0.5, seed)), 200_000)
	})
	inst := apsp.RandomInstance(rand.New(rand.NewSource(int64(seed))), 5, 5, 5)
	n := len(inst.LP().C)
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i)+0.5, 1/float64(i+1)
	}
	lay.dotNsPerFlop = medianOf(7, func() float64 {
		u := fpu.New(fpu.WithFaultRate(1e-4, seed))
		s := 0.0
		start := time.Now()
		for i := 0; i < 100_000; i++ {
			s += u.Dot(a, b)
		}
		d := time.Since(start)
		sinkF, sinkU = s, u.FLOPs()
		return float64(d.Nanoseconds()) / float64(u.FLOPs())
	})
}

// runTraced is the traced run: half the time runs the workload's
// campaigns in-process (untraced and traced on the same seeds), half on
// robustd with the benchmark as the worker. Store replay, FPU probes and
// the recovery scan run untimed between and after the phases.
func runTraced(ctx context.Context, e *env, w *workload, r *runResult) (map[string]float64, error) {
	tr := newTracer()
	ts := &trialStats{}
	lay := &layerStats{}
	half := e.duration() / 2
	if err := tracedInProcessPhase(ctx, e, w, half, tr, r, ts, lay); err != nil {
		return nil, err
	}
	if err := replayStores(e, lay); err != nil {
		return nil, err
	}
	fpuProbes(e.seed, lay)
	allocs, err := allocProbe(lay)
	if err != nil {
		return nil, err
	}
	lay.allocsPerTrial = allocs
	if err := tracedFleetPhase(ctx, e, w, half, tr, r, lay); err != nil {
		return nil, err
	}
	if err := tr.write(e.spanPath(w)); err != nil {
		return nil, err
	}
	tr.report(e.out)

	n := float64(len(ts.trialMs))
	perTrial := func(v float64) float64 { return v / max(n, 1) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"fpu.flops_per_trial":               perTrial(float64(ts.flops)),
		"fpu.faults_per_trial":              perTrial(float64(ts.faults)),
		"fpu.ns_per_flop":                   ratio(float64(ts.busy.Nanoseconds()), float64(ts.flops)),
		"fpu.faulty_add_ns":                 lay.faultyAddNs,
		"fpu.reliable_add_ns":               lay.reliableAddNs,
		"fpu.dot_ns_per_flop":               lay.dotNsPerFlop,
		"fpu.allocs_per_trial":              lay.allocsPerTrial,
		"apps.trial_ms_p50":                 ts.trialMs.pct(0.5),
		"apps.trial_ms_p99":                 ts.trialMs.pct(0.99),
		"harness.busy_frac":                 ratio(float64(ts.busy), float64(ts.slots)),
		"campaign.compile_ms":               lay.compileMs.pct(0.5),
		"campaign.store_put_us_p50":         lay.putUs.pct(0.5),
		"campaign.store_put_us_p99":         lay.putUs.pct(0.99),
		"campaign.store_bytes_per_trial":    lay.storeBytesPerTrial,
		"obs.telemetry_bytes_per_trial":     lay.telemetryBytesPerTrial,
		"campaign.store_open_us_per_record": lay.openUsPerRecord,
		"campaign.table_ms":                 lay.tableMs.pct(0.5),
		"campaign.recover_ms_per_campaign":  lay.recoverMsPerCampaign,
		"campaign.http_submit_ms_p50":       lay.submitMs.pct(0.5),
		"campaign.http_status_ms_p50":       lay.statusMs.pct(0.5),
		"dispatch.lease_ms_p50":             lay.leaseMs.pct(0.5),
		"dispatch.report_ms_p50":            lay.reportMs.pct(0.5),
		"dispatch.trials_per_lease":         ratio(float64(lay.leasedTrials), float64(lay.leases)),
		"dispatch.useful_lease_frac":        ratio(float64(lay.leases), float64(lay.leaseReqs)),
		"dispatch.requeued_shards":          float64(lay.requeued),
		"trace.overhead_frac":               lay.overhead,
	}, nil
}

// spanPath is where the traced run writes its spans, one file per
// workload (a later run overwrites it).
func (e *env) spanPath(w *workload) string {
	return fmt.Sprintf("%s/spans-%s.jsonl", e.build, w.name)
}
