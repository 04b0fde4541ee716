package fpu

import (
	"fmt"
	"math"
	"testing"
)

// Scalar reference loops: the pre-kernel per-operation code paths the
// batched kernels must reproduce bit for bit.

func scalarDot(u *Unit, a, b []float64) float64 {
	var s float64
	for i := range a {
		s = u.Add(s, u.Mul(a[i], b[i]))
	}
	return s
}

func scalarDotRev(u *Unit, a, b []float64) float64 {
	n := len(b)
	var s float64
	for i := range a {
		s = u.Add(s, u.Mul(a[i], b[n-1-i]))
	}
	return s
}

func scalarAxpy(u *Unit, alpha float64, x, y []float64) {
	for i := range x {
		y[i] = u.Add(y[i], u.Mul(alpha, x[i]))
	}
}

func scalarXpay(u *Unit, x []float64, alpha float64, y []float64) {
	for i := range x {
		y[i] = u.Add(x[i], u.Mul(alpha, y[i]))
	}
}

func scalarSum(u *Unit, x []float64) float64 {
	var s float64
	for i := range x {
		s = u.Add(s, x[i])
	}
	return s
}

func scalarScale(u *Unit, alpha float64, x []float64) {
	for i := range x {
		x[i] = u.Mul(alpha, x[i])
	}
}

func scalarAddVec(u *Unit, a, b, dst []float64) {
	for i := range a {
		dst[i] = u.Add(a[i], b[i])
	}
}

func scalarSubVec(u *Unit, a, b, dst []float64) {
	for i := range a {
		dst[i] = u.Sub(a[i], b[i])
	}
}

func scalarGemv(u *Unit, a []float64, rows, cols int, x, dst []float64) {
	for i := 0; i < rows; i++ {
		dst[i] = scalarDot(u, a[i*cols:(i+1)*cols], x)
	}
}

func scalarNorm2(u *Unit, x []float64) float64 {
	return u.Sqrt(scalarDot(u, x, x))
}

// kernelConfig is one cell of the equivalence sweep.
type kernelConfig struct {
	rate   float64
	single bool
}

func kernelConfigs() []kernelConfig {
	var cfgs []kernelConfig
	for _, rate := range []float64{0, 1e-3, 0.02, 0.3, 1} {
		for _, single := range []bool{false, true} {
			cfgs = append(cfgs, kernelConfig{rate: rate, single: single})
		}
	}
	return cfgs
}

func newTestUnit(c kernelConfig, seed uint64) *Unit {
	opts := []Option{WithFaultRate(c.rate, seed)}
	if c.single {
		opts = append(opts, WithSinglePrecision())
	}
	return New(opts...)
}

// testVec fills deterministic pseudo-random data including negatives.
func testVec(n int, seed uint64) []float64 {
	rng := NewLFSR(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*4 - 2
	}
	return v
}

// checkUnits fails the test when the two units' exact counters diverge.
func checkUnits(t *testing.T, scalar, batched *Unit) {
	t.Helper()
	if s, b := scalar.FLOPs(), batched.FLOPs(); s != b {
		t.Errorf("FLOPs: scalar %d, batched %d", s, b)
	}
	if s, b := scalar.Faults(), batched.Faults(); s != b {
		t.Errorf("Faults: scalar %d, batched %d", s, b)
	}
	for op := OpAdd; op <= OpCmp; op++ {
		if s, b := scalar.OpCount(op), batched.OpCount(op); s != b {
			t.Errorf("OpCount(%v): scalar %d, batched %d", op, s, b)
		}
	}
	si, bi := scalar.Injector(), batched.Injector()
	if (si == nil) != (bi == nil) {
		t.Fatalf("injector presence mismatch")
	}
	if si != nil && si.Injected() != bi.Injected() {
		t.Errorf("Injected: scalar %d, batched %d", si.Injected(), bi.Injected())
	}
}

// sameFloat reports whether want and got are bit-equal. With anyNaN set,
// two NaNs also count as equal whatever their payloads: a reliable unit
// leaves NaNs raw, and IEEE 754 does not pin which operand's payload an
// add or multiply propagates, so only faulty units (which canonicalize)
// can be held to NaN bits.
func sameFloat(want, got float64, anyNaN bool) bool {
	if anyNaN && want != want && got != got {
		return true
	}
	return math.Float64bits(want) == math.Float64bits(got)
}

func checkVec(t *testing.T, name string, want, got []float64, anyNaN bool) {
	t.Helper()
	for i := range want {
		if !sameFloat(want[i], got[i], anyNaN) {
			t.Fatalf("%s[%d]: scalar %x (%g), batched %x (%g)",
				name, i, math.Float64bits(want[i]), want[i],
				math.Float64bits(got[i]), got[i])
		}
	}
}

func checkScalar(t *testing.T, name string, want, got float64, anyNaN bool) {
	t.Helper()
	if !sameFloat(want, got, anyNaN) {
		t.Fatalf("%s: scalar %x (%g), batched %x (%g)",
			name, math.Float64bits(want), want, math.Float64bits(got), got)
	}
}

// Two quiet NaNs whose payloads differ from each other and from canonNaN.
var (
	nanA = math.Float64frombits(0x7FF8000000000001)
	nanB = math.Float64frombits(0xFFF8000000000002)
)

// specialVecs returns testVec data with an IEEE special planted at every
// index ≡ 3 (mod 7): NaNs with foreign payloads, ±Inf, and 0·Inf
// products, so every kernel meets the NaN canonicalization path.
func specialVecs(n int, seed uint64) (a, b []float64) {
	a, b = testVec(n, seed), testVec(n, seed+1)
	pairs := [][2]float64{
		{nanA, 1.5},
		{math.Inf(1), 0},
		{0, math.Inf(-1)},
		{math.Inf(-1), 2},
		{nanB, nanA},
		{math.Inf(1), -0.5},
	}
	for i := 3; i < n; i += 7 {
		p := pairs[(i/7)%len(pairs)]
		a[i], b[i] = p[0], p[1]
	}
	return a, b
}

// specialGemv returns a rows×cols matrix and a vector whose row products
// end in every IEEE class: NaN from Inf·0 (row ≡ 0 mod 5), ±Inf (1), NaNs
// with the two foreign payloads (2, 3), and finite (4).
func specialGemv(rows, cols int, seed uint64) (a, x []float64) {
	a, x = testVec(rows*cols, seed), testVec(cols, seed+1)
	c := cols / 2
	x[c] = 0
	for r := 0; r < rows; r++ {
		row := a[r*cols : (r+1)*cols]
		switch r % 5 {
		case 0:
			row[c] = math.Inf(1)
		case 1:
			row[(c+1)%cols] = math.Inf(-1)
		case 2:
			row[cols-1] = nanA
		case 3:
			row[0] = nanB
		}
	}
	return a, x
}

var kernelSizes = []int{0, 1, 2, 3, 5, 17, 64, 257}

// TestKernelsBitIdentical drives every batched kernel and its scalar
// reference on identically seeded units and demands bitwise-equal outputs
// and identical FLOP/fault/injection counters across fault rates, sizes,
// and both precisions, on finite data and on data laced with NaNs and
// infinities.
func TestKernelsBitIdentical(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		for _, n := range kernelSizes {
			seed := uint64(n)*1009 + uint64(cfg.rate*1000) + 5
			checkKernels(t, cfg, seed, testVec(n, seed), testVec(n, seed+1))
			sa, sb := specialVecs(n, seed)
			checkKernels(t, cfg, seed, sa, sb)
		}
	}
}

func checkKernels(t *testing.T, cfg kernelConfig, seed uint64, a, b []float64) {
	t.Helper()
	n := len(a)
	alpha := 1.37
	raw := cfg.rate == 0
	su := newTestUnit(cfg, seed)
	bu := newTestUnit(cfg, seed)
	checkScalar(t, "Dot", scalarDot(su, a, b), bu.Dot(a, b), raw)
	checkScalar(t, "DotRev", scalarDotRev(su, a, b), bu.DotRev(a, b), raw)
	checkScalar(t, "Sum", scalarSum(su, a), bu.Sum(a), raw)
	checkScalar(t, "Norm2", scalarNorm2(su, a), bu.Norm2(a), raw)

	ys := append([]float64(nil), b...)
	yb := append([]float64(nil), b...)
	scalarAxpy(su, alpha, a, ys)
	bu.Axpy(alpha, a, yb)
	checkVec(t, "Axpy", ys, yb, raw)

	copy(ys, b)
	copy(yb, b)
	scalarXpay(su, a, alpha, ys)
	bu.Xpay(a, alpha, yb)
	checkVec(t, "Xpay", ys, yb, raw)

	xs := append([]float64(nil), a...)
	xb := append([]float64(nil), a...)
	scalarScale(su, alpha, xs)
	bu.Scale(alpha, xb)
	checkVec(t, "Scale", xs, xb, raw)

	ds := make([]float64, n)
	db := make([]float64, n)
	scalarAddVec(su, a, b, ds)
	bu.AddVec(a, b, db)
	checkVec(t, "AddVec", ds, db, raw)
	scalarSubVec(su, a, b, ds)
	bu.SubVec(a, b, db)
	checkVec(t, "SubVec", ds, db, raw)

	checkUnits(t, su, bu)
}

// gemvShapes are the TestGemvBitIdentical matrix shapes: lp/apsp's 32×20
// constraint matrix, a row count that is not a multiple of 4, a one-column
// block, and small and tall-thin cases.
var gemvShapes = [][2]int{{1, 1}, {3, 5}, {4, 1}, {13, 20}, {16, 16}, {32, 20}, {40, 7}}

// TestGemvBitIdentical covers the matrix-vector kernel separately so the
// row-major layout and per-row fault hand-off are exercised, on finite
// data and on rows ending in NaN or ±Inf. Its last case repeats lp/apsp's
// 32×20 product on one unit at a sparse rate, so most four-row groups run
// fault-free while some take a fault part-way through; it insists on
// seeing a fault strike a group's second to fourth row.
func TestGemvBitIdentical(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		for _, dims := range gemvShapes {
			rows, cols := dims[0], dims[1]
			seed := uint64(rows*100+cols) + uint64(cfg.rate*10000)
			checkGemv(t, cfg, seed, rows, cols, testVec(rows*cols, seed), testVec(cols, seed+1), 1)
			a, x := specialGemv(rows, cols, seed)
			checkGemv(t, cfg, seed, rows, cols, a, x, 1)
		}
	}

	const rows, cols, calls = 32, 20, 20
	for _, single := range []bool{false, true} {
		rec := &streamObserver{}
		a, x := testVec(rows*cols, 3), testVec(cols, 4)
		u := checkGemv(t, kernelConfig{rate: 1e-3, single: single}, 17, rows, cols, a, x, calls, WithObserver(rec))
		inside := 0
		for _, ev := range rec.events {
			if row := (ev.flop - 1) % (2 * rows * cols) / (2 * cols); row%4 != 0 {
				inside++
			}
		}
		if u.Faults() == 0 || inside == 0 {
			t.Errorf("single=%v: %d faults, %d inside a four-row group; want some of each", single, u.Faults(), inside)
		}
	}
}

// checkGemv runs calls back-to-back Gemv products on a batched unit and
// the scalar reference loop on an identically seeded unit, comparing every
// output and the final counters. It returns the batched unit.
func checkGemv(t *testing.T, cfg kernelConfig, seed uint64, rows, cols int, a, x []float64, calls int, opts ...Option) *Unit {
	t.Helper()
	su := newTestUnit(cfg, seed)
	bu := newTestUnit(cfg, seed)
	for _, opt := range opts {
		opt(bu)
	}
	ds := make([]float64, rows)
	db := make([]float64, rows)
	for c := 0; c < calls; c++ {
		scalarGemv(su, a, rows, cols, x, ds)
		bu.Gemv(a, rows, cols, x, db)
		checkVec(t, "Gemv", ds, db, cfg.rate == 0)
	}
	checkUnits(t, su, bu)
	return bu
}

// TestKernelsInterleaveScalarOps checks that the fault schedule stays
// aligned when batched kernels and plain scalar FPU calls are mixed in one
// stream, the way solver control loops actually use a Unit.
func TestKernelsInterleaveScalarOps(t *testing.T) {
	for _, cfg := range kernelConfigs() {
		const n = 29
		a := testVec(n, 11)
		b := testVec(n, 12)
		su := newTestUnit(cfg, 99)
		bu := newTestUnit(cfg, 99)

		var sAcc, bAcc float64
		for round := 0; round < 20; round++ {
			sAcc = su.Add(sAcc, scalarDot(su, a, b))
			bAcc = bu.Add(bAcc, bu.Dot(a, b))
			if su.Less(sAcc, 1) != bu.Less(bAcc, 1) {
				t.Fatalf("round %d: compare diverged", round)
			}
			sAcc = su.Mul(sAcc, 0.5)
			bAcc = bu.Mul(bAcc, 0.5)
			ys := append([]float64(nil), b...)
			yb := append([]float64(nil), b...)
			scalarAxpy(su, sAcc, a, ys)
			bu.Axpy(bAcc, a, yb)
			checkVec(t, "interleaved Axpy", ys, yb, false)
			sAcc = su.Add(sAcc, scalarSum(su, ys))
			bAcc = bu.Add(bAcc, bu.Sum(yb))
			checkScalar(t, "interleaved acc", sAcc, bAcc, false)
		}
		checkUnits(t, su, bu)
	}
}

// TestKernelsNilAndReliableUnits pins the exact-arithmetic paths: a nil
// *Unit and an injector-free unit must both equal the plain Go loops.
func TestKernelsNilAndReliableUnits(t *testing.T) {
	const n = 41
	a := testVec(n, 3)
	b := testVec(n, 4)
	var nilUnit *Unit
	rel := New()

	var want float64
	for i := range a {
		want += a[i] * b[i]
	}
	checkScalar(t, "nil Dot", want, nilUnit.Dot(a, b), false)
	checkScalar(t, "reliable Dot", want, rel.Dot(a, b), false)
	if got := rel.FLOPs(); got != 2*n {
		t.Errorf("reliable Dot FLOPs = %d, want %d", got, 2*n)
	}
	if got := nilUnit.FLOPs(); got != 0 {
		t.Errorf("nil Dot FLOPs = %d, want 0", got)
	}
	if got := rel.OpCount(OpMul); got != n {
		t.Errorf("reliable Dot mul count = %d, want %d", got, n)
	}

	for _, dims := range gemvShapes {
		rows, cols := dims[0], dims[1]
		ga, gx := specialGemv(rows, cols, 9)
		want := make([]float64, rows)
		for i := range want {
			for j := 0; j < cols; j++ {
				want[i] += ga[i*cols+j] * gx[j]
			}
		}
		got := make([]float64, rows)
		nilUnit.Gemv(ga, rows, cols, gx, got)
		checkVec(t, "nil Gemv", want, got, true)
		New().Gemv(ga, rows, cols, gx, got)
		checkVec(t, "reliable Gemv", want, got, true)
	}
}

// TestKernelEnergyBulkCharge pins the documented accounting contract:
// energy is charged as opEnergy×n per kernel run.
func TestKernelEnergyBulkCharge(t *testing.T) {
	u := New(WithOpEnergy(0.25))
	x := testVec(100, 8)
	u.Sum(x)
	if got, want := u.Energy(), 0.25*100; got != want {
		t.Errorf("Energy = %g, want %g", got, want)
	}
}

// --- Benchmarks: per-FLOP scalar dispatch vs batched kernels. ---

const benchN = 1024

func benchData() ([]float64, []float64) {
	return testVec(benchN, 1), testVec(benchN, 2)
}

func BenchmarkDotScalar(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		scalarDot(u, x, y)
	}
}

func BenchmarkDotBatched(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		u.Dot(x, y)
	}
}

func BenchmarkAxpyScalar(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		scalarAxpy(u, 1.0001, x, y)
	}
}

func BenchmarkAxpyBatched(b *testing.B) {
	x, y := benchData()
	u := New(WithFaultRate(1e-3, 7))
	b.SetBytes(benchN * 8)
	for i := 0; i < b.N; i++ {
		u.Axpy(1.0001, x, y)
	}
}

// gemvBenchCases are the batched-kernel rungs of the perf ladder: a
// 64×64 product, and lp/apsp's 32×20 constraint matrix with the default
// injector at rate 0 (no faults) and 1e-3.
var gemvBenchCases = []struct {
	rows, cols int
	rate       float64
}{{64, 64, 1e-3}, {32, 20, 0}, {32, 20, 1e-3}}

func benchGemv(b *testing.B, gemv func(u *Unit, a []float64, rows, cols int, x, dst []float64)) {
	for _, bc := range gemvBenchCases {
		b.Run(fmt.Sprintf("%dx%d/rate=%g", bc.rows, bc.cols, bc.rate), func(b *testing.B) {
			a := testVec(bc.rows*bc.cols, 1)
			x := testVec(bc.cols, 2)
			dst := make([]float64, bc.rows)
			u := New(WithInjector(NewInjector(bc.rate, 7)))
			b.ReportAllocs()
			for b.Loop() {
				gemv(u, a, bc.rows, bc.cols, x, dst)
			}
			b.ReportMetric(float64(u.FLOPs())/float64(b.N), "flops/op")
		})
	}
}

func BenchmarkGemvScalar(b *testing.B) { benchGemv(b, scalarGemv) }

func BenchmarkGemvBatched(b *testing.B) { benchGemv(b, (*Unit).Gemv) }
