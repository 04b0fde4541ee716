package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"robustify/internal/campaign"
)

// TestMain lets the test binary serve as a set-up child, as the
// benchmark binary does (see setupOnce).
func TestMain(m *testing.M) {
	if setupChild() {
		return
	}
	os.Exit(m.Run())
}

// testEnv is a run environment over the repository one directory up,
// writing only into the test's temp dir.
func testEnv(t *testing.T, seconds float64) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	return &env{root: root, build: tmp, tmp: tmp, seed: 3, seconds: seconds, out: io.Discard}
}

func TestWorkloadInputsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.spec(campaignSeed(7, 2)), w.spec(campaignSeed(7, 2))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different specs", w.name)
		}
		if w.spec(campaignSeed(7, 3)).Seed == a.Seed || w.spec(campaignSeed(8, 2)).Seed == a.Seed {
			t.Errorf("%s: different campaigns or workload seeds share a campaign seed", w.name)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestMetricNamesAndBounds(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	benchmarked := 0
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		if !w.handOnly {
			benchmarked++
		}
	}
	if benchmarked < 2 || benchmarked > 8 {
		t.Errorf("BENCHMARK.json would name %d workloads, want 2 to 8", benchmarked)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

// TestBenchmarkJSONCommitted keeps the committed BENCHMARK.json in step
// with the catalogue (regenerate with -describe).
func TestBenchmarkJSONCommitted(t *testing.T) {
	want, err := benchmarkJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: bash perfbench/run.sh -describe > BENCHMARK.json")
	}
}

func TestCanaryDigestsMatchPlanBuild(t *testing.T) {
	for _, w := range workloads {
		camp, err := campaign.Compile(w.spec(campaignSeed(defaultSeed, 0)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := camp.Plan.Build().CSV(&buf); err != nil {
			t.Fatal(err)
		}
		if got := digestOf(buf.Bytes()); got != w.digest {
			t.Errorf("%s: canary digest %s, committed %s", w.name, got, w.digest)
		}
	}
}

// corrupt changes the last digit of the table's last value.
func corrupt(csv []byte) []byte {
	out := append([]byte(nil), csv...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '0' + (out[i]-'0'+1)%10
			break
		}
	}
	return out
}

func runOnce(t *testing.T, e *env, name string, traced bool) *resultLine {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return runCopy(t, e, *w, traced)
}

// runCopy runs a (possibly altered) copy of a workload.
func runCopy(t *testing.T, e *env, w workload, traced bool) *resultLine {
	t.Helper()
	line, err := runWorkload(context.Background(), e, &w, traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	return line
}

func TestWrongDigestOrValueFails(t *testing.T) {
	w, _ := workloadByName("lp-kernel")
	wrong := *w
	wrong.digest = strings.Repeat("0", 64)
	if line := runCopy(t, testEnv(t, 0.01), wrong, false); line.Correct || line.Failed == 0 {
		t.Errorf("wrong digest: correct=%v failed=%d", line.Correct, line.Failed)
	}
	e := testEnv(t, 0.01)
	e.tamper = corrupt
	if line := runOnce(t, e, "lp-kernel", false); line.Correct || line.Failed == 0 {
		t.Errorf("corrupted value: correct=%v failed=%d", line.Correct, line.Failed)
	}
}

// TestEachWorkloadCompletesTiny runs every workload, untraced and
// traced, for about one campaign and checks the result line.
func TestEachWorkloadCompletesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs robustd")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := testEnv(t, 0.05)
			line := runOnce(t, e, w.name, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !line.Correct || line.Attempted == 0 || len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %+v", w.name, traced, line)
			}
			for _, m := range defs {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestCorruptedFleetTableFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs robustd")
	}
	e := testEnv(t, 0.05)
	e.tamper = corrupt
	if line := runOnce(t, e, "fleet-tiny", false); line.Correct || line.Failed < 2 {
		t.Errorf("corrupted fleet tables: correct=%v failed=%d", line.Correct, line.Failed)
	}
}

// TestFailingFleetLeavesNoChild makes robustworker exit at start (an
// unknown flag) and checks that robustd was stopped too.
func TestFailingFleetLeavesNoChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs robustd")
	}
	e := testEnv(t, 0.05)
	e.workerArgs = []string{"-no-such-flag"}
	w, _ := workloadByName("fleet-tiny")
	if _, err := runWorkload(context.Background(), e, w, false); err == nil {
		t.Fatal("fleet run with a broken worker succeeded")
	}
	live.Lock()
	n := len(live.m)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d children still registered", n)
	}
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err == nil && bytes.HasPrefix(b, []byte(e.bins)) {
			t.Errorf("process %s still running: %q", p, bytes.ReplaceAll(b, []byte{0}, []byte{' '}))
		}
	}
}

// TestQuartilesMatchPython pins the steadiness mode's quartiles to
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.25, 0.5, 8, 3}, [3]float64{1, 2.25, 5.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestHostContextReadsReport checks that -steady finds the calibration
// time and steal share in the lines runWorkload prints.
func TestHostContextReadsReport(t *testing.T) {
	report := "context {\"workload\":\"lp-kernel\",\"calibration_ns\":28345678,\"nproc\":2}\n" +
		"lp-kernel    trials_per_s  1100 trials/s\n" +
		"host cpu busy=0.950 idle=0.040 steal=0.012\n"
	cal, steal := hostContext(report)
	if cal != 28345678 || steal != 0.012 {
		t.Errorf("hostContext = %v, %v; want 28345678, 0.012", cal, steal)
	}
}
