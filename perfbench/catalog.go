package main

import (
	"encoding/json"
	"runtime"

	"robustify/internal/campaign"
)

// metricDef is one reported metric. Bound is set for end-to-end metrics
// only (per-layer metrics have none, and omit the key): the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression. The bounds come from the spread of ten seeds on a
// shared 2-vCPU host, whose own speed drifts (see README.md).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of robustbench or robustd sees. Every
// workload reports all of them (trace 0). failed_frac is printed beside
// them but is not listed: it is 0 on a correct run, and the result line
// carries it as failed/attempted.
var endToEnd = []metricDef{
	{"trials_per_s", "trials/s", "higher", 0.25},
	{"campaign_ms_p50", "ms", "lower", 0.25},
	{"campaign_ms_p90", "ms", "lower", 0.25},
	{"results_ms_p50", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.1},
}

// perLayer are the traced run's metrics (trace 1). Each is measured on
// every workload from outside the program, through the public entry
// point named in README.md.
var perLayer = []metricDef{
	{"fpu.flops_per_trial", "count", "lower", 0},
	{"fpu.faults_per_trial", "count", "lower", 0},
	{"fpu.ns_per_flop", "ns", "lower", 0},
	{"fpu.faulty_add_ns", "ns", "lower", 0},
	{"fpu.reliable_add_ns", "ns", "lower", 0},
	{"fpu.dot_ns_per_flop", "ns", "lower", 0},
	{"fpu.allocs_per_trial", "count", "lower", 0},
	{"apps.trial_ms_p50", "ms", "lower", 0},
	{"apps.trial_ms_p99", "ms", "lower", 0},
	{"harness.busy_frac", "ratio", "higher", 0},
	{"campaign.compile_ms", "ms", "lower", 0},
	{"campaign.store_put_us_p50", "us", "lower", 0},
	{"campaign.store_put_us_p99", "us", "lower", 0},
	{"campaign.store_bytes_per_trial", "bytes", "lower", 0},
	{"obs.telemetry_bytes_per_trial", "bytes", "lower", 0},
	{"campaign.store_open_us_per_record", "us", "lower", 0},
	{"campaign.table_ms", "ms", "lower", 0},
	{"campaign.recover_ms_per_campaign", "ms", "lower", 0},
	{"campaign.http_submit_ms_p50", "ms", "lower", 0},
	{"campaign.http_status_ms_p50", "ms", "lower", 0},
	{"dispatch.lease_ms_p50", "ms", "lower", 0},
	{"dispatch.report_ms_p50", "ms", "lower", 0},
	{"dispatch.trials_per_lease", "count", "higher", 0},
	{"dispatch.useful_lease_frac", "ratio", "higher", 0},
	{"dispatch.requeued_shards", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// kind says how a workload's campaigns run: in the benchmark process
// along the robustbench -out path, or on a robustd + robustworker fleet.
type kind int

const (
	inProcess kind = iota
	fleet
)

// workload is one benchmark input set. spec builds campaign k's spec
// from its derived seed; digest is the SHA-256 of the table CSV of the
// canary campaign (campaign 0 at defaultSeed), committed so that every
// run proves the program still computes the same table.
type workload struct {
	name   string
	why    string
	kind   kind
	spec   func(seed uint64) campaign.Spec
	digest string
	// handOnly keeps a workload out of BENCHMARK.json: it runs with
	// -workload like any other, but its runs spread past the bounds on
	// a shared host, so no change can be judged by it (see README.md).
	handOnly bool
}

// defaultSeed is the workload seed whose first campaign is the canary.
const defaultSeed = 1

// nproc bounds the load: trial threads for in-process workloads.
var nproc = runtime.NumCPU()

var workloads = []workload{
	{
		name: "sort-faulty",
		why:  "scalar FPU path at dense fault rates (0.1, 0.5): the injector hot spot; trial time hides store and engine cost",
		kind: inProcess,
		spec: func(seed uint64) campaign.Spec {
			return campaign.Spec{
				Custom:  &campaign.CustomSweep{Workload: "sort/robust", Rates: []float64{0.1, 0.5}},
				Trials:  8,
				Seed:    seed,
				Workers: nproc,
			}
		},
		digest: "e91420622a2fec50aa115e42961f9da96e138d6a7f6ab8195a7fa1df9b8903b5",
	},
	{
		name: "lp-kernel",
		why:  "batched-kernel path (Dot/Gemv/Axpy) at sparse fault rates (1e-4, 1e-3): kernel cost dominates, injector cost is small",
		kind: inProcess,
		spec: func(seed uint64) campaign.Spec {
			return campaign.Spec{
				Custom:  &campaign.CustomSweep{Workload: "lp/apsp", Rates: []float64{1e-4, 1e-3}},
				Trials:  32,
				Seed:    seed,
				Workers: nproc,
			}
		},
		digest: "97958da02a35e962ddb8146a4b774d360708c70c4832dad06fb1df63c8b74f8c",
	},
	{
		name: "fleet-tiny",
		why:  "robustd (200-trial shards, not the default 16) + robustworker on loopback, microsecond trials: lease/report HTTP, per-trial store flush, telemetry, status/results reads",
		kind: fleet,
		spec: func(seed uint64) campaign.Spec {
			return campaign.Spec{
				Custom: &campaign.CustomSweep{Workload: "sort/base", Rates: []float64{0.001, 0.01, 0.1}},
				Trials: 200,
				Seed:   seed,
			}
		},
		digest:   "f409ff3280d1fb99793deb378748de9e6110ba0fca0e68148c8d9ee8b8d92e56",
		handOnly: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// campaignSeed derives campaign k's seed from the workload seed
// (splitmix64), so every campaign of a run is a fresh input and the same
// workload seed always yields the same campaigns.
func campaignSeed(seed uint64, k int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(k) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// benchmarkJSON renders BENCHMARK.json, which names the benchmark's
// command, workloads and metrics with their bounds. The catalogue above
// is its one source; a test keeps the committed file in step with it.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !w.handOnly {
			doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
