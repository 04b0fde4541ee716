package fpu

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestDefaultModelOpStreamPinned freezes the default fault model's exact
// behavior: the constants below were captured from the pre-FaultModel
// refactor Injector (uniform LFSR-spaced faults, emulated bit
// distribution) and must never change. Every stored table, campaign
// resume artifact, and distributed byte-identity guarantee in the repo
// assumes this op stream — a drift here silently invalidates all of them.
func TestDefaultModelOpStreamPinned(t *testing.T) {
	checkPinnedOpStream(t, New(WithFaultRate(0.02, 99)), nil)
}

// TestDefaultModelOpStreamPinnedWithObserver replays the identical pinned
// stream with an Observer attached: the flight recorder is strictly
// passive, so every hash and counter above must hold unchanged, and the
// observer must see exactly the pinned number of injected faults.
func TestDefaultModelOpStreamPinnedWithObserver(t *testing.T) {
	rec := &streamObserver{}
	checkPinnedOpStream(t, New(WithFaultRate(0.02, 99), WithObserver(rec)), rec)
}

func checkPinnedOpStream(t *testing.T, u *Unit, rec *streamObserver) {
	t.Helper()
	n := 257
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1.25*float64(i%17) - 3.5
		b[i] = 0.75*float64(i%23) + 0.125
	}
	h := fnv.New64a()
	put := func(v float64) {
		bits := math.Float64bits(v)
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(u.Dot(a, b))
	put(u.DotRev(a, b))
	y := make([]float64, n)
	copy(y, b)
	u.Axpy(0.5, a, y)
	for _, v := range y {
		put(v)
	}
	u.Xpay(a, -0.25, y)
	for _, v := range y {
		put(v)
	}
	put(u.Sum(y))
	u.Scale(1.0625, y)
	put(u.Norm2(y))
	dst := make([]float64, 16)
	u.Gemv(a[:16*16], 16, 16, b[:16], dst)
	for _, v := range dst {
		put(v)
	}
	// CorruptSlice is a no-op under the default model: interleaving it
	// with the op stream must not advance the fault schedule or charge
	// FLOPs, or every solver that gained the memory-fault hook would
	// drift from its pre-refactor per-seed results.
	u.CorruptSlice(y)
	s := 0.0
	for i := 0; i < 100; i++ {
		s = u.Add(s, u.Mul(a[i%n], b[(i*7)%n]))
		s = u.Div(s, 1.0009765625)
		s = u.Sqrt(u.Abs(s) + 1)
		if u.Less(s, float64(i)) {
			s = u.Sub(s, 0.5)
		}
	}
	put(s)

	const (
		wantHash     = uint64(0xfd7b0c3fb07ae800)
		wantFLOPs    = uint64(4189)
		wantFaults   = uint64(83)
		wantInjected = uint64(83)
	)
	if got := h.Sum64(); got != wantHash {
		t.Errorf("op-stream hash = %#x, want %#x (default fault model drifted from the pre-refactor injector)", got, wantHash)
	}
	if got := u.FLOPs(); got != wantFLOPs {
		t.Errorf("FLOPs = %d, want %d", got, wantFLOPs)
	}
	if got := u.Faults(); got != wantFaults {
		t.Errorf("Faults = %d, want %d", got, wantFaults)
	}
	if got := u.Model().Injected(); got != wantInjected {
		t.Errorf("Injected = %d, want %d", got, wantInjected)
	}
	wantPerOp := map[Op]uint64{OpAdd: 1898, OpSub: 92, OpMul: 1898, OpDiv: 100, OpSqrt: 101, OpCmp: 100}
	for op, want := range wantPerOp {
		if got := u.OpCount(op); got != want {
			t.Errorf("OpCount(%s) = %d, want %d", op, got, want)
		}
	}
	if rec != nil {
		// Every injected fault reaches the observer: bit corruptions via
		// FaultInjected, comparison flips via CompareFault.
		faults := 0
		for _, ev := range rec.events {
			if ev.kind == "fault" || ev.kind == "compare" {
				faults++
			}
		}
		if uint64(faults) != wantInjected {
			t.Errorf("observer saw %d fault events, want %d", faults, wantInjected)
		}
	}
}

// TestGemvOpStreamPinned freezes Gemv's exact behavior under the default
// model: outputs, counters and the energy accumulator of back-to-back
// products over lp/apsp's 32×20 shape, a row count that is not a multiple
// of 4, a one-column block, and a square block, alternating finite data
// with rows that end in NaN or ±Inf. The constants were captured from the
// per-row Dot Gemv, before rows were blocked by four.
func TestGemvOpStreamPinned(t *testing.T) {
	checkPinnedGemvStream(t, New(WithFaultRate(0.002, 99), WithOpEnergy(1.0/3)), nil)
}

// TestGemvOpStreamPinnedWithObserver replays the pinned Gemv stream with
// an Observer attached, which must change nothing.
func TestGemvOpStreamPinnedWithObserver(t *testing.T) {
	rec := &streamObserver{}
	checkPinnedGemvStream(t, New(WithFaultRate(0.002, 99), WithOpEnergy(1.0/3), WithObserver(rec)), rec)
}

func checkPinnedGemvStream(t *testing.T, u *Unit, rec *streamObserver) {
	t.Helper()
	shapes := [][2]int{{32, 20}, {13, 20}, {4, 1}, {16, 16}}
	h := fnv.New64a()
	var buf [8]byte
	for call := 0; call < 40; call++ {
		rows, cols := shapes[call%len(shapes)][0], shapes[call%len(shapes)][1]
		a, x := testVec(rows*cols, uint64(call)), testVec(cols, uint64(call)+1)
		if call%2 == 1 {
			a, x = specialGemv(rows, cols, uint64(call))
		}
		dst := make([]float64, rows)
		u.Gemv(a, rows, cols, x, dst)
		for _, v := range dst {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}

	const (
		wantHash   = uint64(0x9be0543fce45ef01)
		wantFLOPs  = uint64(23200)
		wantFaults = uint64(53)
		wantEnergy = uint64(0x40be355555555537)
	)
	if got := h.Sum64(); got != wantHash {
		t.Errorf("Gemv stream hash = %#x, want %#x", got, wantHash)
	}
	if got := u.FLOPs(); got != wantFLOPs {
		t.Errorf("FLOPs = %d, want %d", got, wantFLOPs)
	}
	if got := u.Faults(); got != wantFaults {
		t.Errorf("Faults = %d, want %d", got, wantFaults)
	}
	if got := math.Float64bits(u.Energy()); got != wantEnergy {
		t.Errorf("Energy bits = %#x, want %#x", got, wantEnergy)
	}
	if rec != nil && uint64(len(rec.events)) != wantFaults {
		t.Errorf("observer saw %d events, want %d", len(rec.events), wantFaults)
	}
}
