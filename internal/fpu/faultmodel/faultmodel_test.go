package faultmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"robustify/internal/fpu"
)

func fp(v float64) *float64 { return &v }

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // "" means nil spec (default model)
	}{
		{"", ""},
		{"default", ""},
		{"  burst  ", Burst},
		{"stratified", Stratified},
		{"memory", Memory},
		{`{"name":"burst","burst_len":128,"burst_prob":0.25}`, Burst},
		{`{"name":"stratified","exp_weight":3,"mant_weight":0.5,"sign_weight":0}`, Stratified},
	} {
		spec, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if tc.want == "" {
			if spec != nil {
				t.Errorf("Parse(%q) = %+v, want nil (default)", tc.in, spec)
			}
			continue
		}
		if spec == nil || spec.Name != tc.want {
			t.Errorf("Parse(%q) = %+v, want name %q", tc.in, spec, tc.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"cosmic",                                 // unknown family
		`{"name":"burst","typo_len":128}`,        // unknown JSON field
		`{"name":"default","burst_len":128}`,     // cross-family param
		`{"name":"stratified","burst_prob":0.5}`, // cross-family param
		`{"name":"burst","burst_prob":1.5}`,      // out-of-range prob
		`{"name":"burst","burst_len":-3}`,        // negative length
		`{"name":"stratified","exp_weight":-1}`,  // negative weight
		`{"name":"memory","exp_weight":1}`,       // cross-family param
	} {
		if spec, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, spec)
		}
	}
}

func TestValidateAllZeroStratifiedWeights(t *testing.T) {
	s := &Spec{Name: Stratified, ExpWeight: fp(0), MantWeight: fp(0), SignWeight: fp(0)}
	if err := s.Validate(); err == nil {
		t.Error("all-zero stratified weights validated; a model with no flippable bits must be rejected")
	}
}

// specs returns one representative spec per model family, parameters
// included where they exist.
func specs() []*Spec {
	return []*Spec{
		nil, // default via nil
		{Name: Default},
		{Name: Stratified, ExpWeight: fp(2), SignWeight: fp(0.25)},
		{Name: Burst, BurstLen: 32, BurstProb: 0.4},
		{Name: Burst}, // defaults: len 64, prob = voltage MaxRate
		{Name: Memory},
	}
}

// stream runs a fixed mixed op stream (scalar ops, batched kernels, and a
// CorruptSlice boundary) and returns the bit pattern of every produced
// value plus the unit's counters.
func stream(u *fpu.Unit) (bits []uint64, flops, faults uint64) {
	n := 129
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 0.5*float64(i%13) - 2.25
		b[i] = 1.5*float64(i%7) + 0.125
	}
	put := func(v float64) { bits = append(bits, math.Float64bits(v)) }
	put(u.Dot(a, b))
	y := make([]float64, n)
	copy(y, b)
	u.Axpy(0.75, a, y)
	u.CorruptSlice(y)
	for _, v := range y {
		put(v)
	}
	put(u.Sum(y))
	s := 0.0
	for i := 0; i < 200; i++ {
		s = u.Add(s, u.Mul(a[i%n], b[(i*3)%n]))
		s = u.Sqrt(u.Abs(s) + 1)
	}
	put(s)
	put(u.Norm2(y))
	return bits, u.FLOPs(), u.Faults()
}

func TestRunTwiceByteIdentity(t *testing.T) {
	for _, spec := range specs() {
		name := spec.ModelName()
		b1, fl1, fa1 := stream(spec.Unit(0.05, 1234))
		b2, fl2, fa2 := stream(spec.Unit(0.05, 1234))
		if fl1 != fl2 || fa1 != fa2 {
			t.Errorf("%s: counters diverged across identical runs: flops %d/%d faults %d/%d", name, fl1, fl2, fa1, fa2)
			continue
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Errorf("%s: value %d diverged across identical runs: %#x vs %#x", name, i, b1[i], b2[i])
				break
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, spec := range specs()[2:] { // skip the two default-model entries
		name := spec.ModelName()
		b1, _, _ := stream(spec.Unit(0.2, 1))
		b2, _, _ := stream(spec.Unit(0.2, 2))
		same := true
		for i := range b1 {
			if b1[i] != b2[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestScalarBatchedIdentity checks the FaultModel contract's core clause:
// a batched kernel must be bit-identical to the equivalent scalar-method
// loop under the same model and seed — same LFSR draws, same flipped
// bits, same counters — for every model family. Rates 0.5 and 1 cover
// the dense schedules: gaps of one or two ops, and at rate 1 a fault on
// every op with no gap draw at all.
func TestScalarBatchedIdentity(t *testing.T) {
	n := 257
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1.25*float64(i%17) - 3.5
		b[i] = 0.75*float64(i%23) + 0.125
	}
	for _, spec := range specs() {
		for _, rate := range []float64{0.08, 0.5, 1} {
			name := fmt.Sprintf("%s@%g", spec.ModelName(), rate)
			for _, seed := range []uint64{3, 77, 900001} {
				batched := spec.Unit(rate, seed)
				scalar := spec.Unit(rate, seed)

				gotDot := batched.Dot(a, b)
				wantDot := 0.0
				for i := 0; i < n; i++ {
					wantDot = scalar.Add(wantDot, scalar.Mul(a[i], b[i]))
				}
				if math.Float64bits(gotDot) != math.Float64bits(wantDot) {
					t.Errorf("%s seed %d: Dot %x != scalar loop %x", name, seed,
						math.Float64bits(gotDot), math.Float64bits(wantDot))
				}

				yb := append([]float64(nil), b...)
				ys := append([]float64(nil), b...)
				batched.Axpy(0.5, a, yb)
				for i := 0; i < n; i++ {
					ys[i] = scalar.Add(ys[i], scalar.Mul(0.5, a[i]))
				}
				for i := range yb {
					if math.Float64bits(yb[i]) != math.Float64bits(ys[i]) {
						t.Errorf("%s seed %d: Axpy[%d] %x != scalar %x", name, seed, i,
							math.Float64bits(yb[i]), math.Float64bits(ys[i]))
						break
					}
				}

				gotSum := batched.Sum(yb)
				wantSum := 0.0
				for i := 0; i < n; i++ {
					wantSum = scalar.Add(wantSum, ys[i])
				}
				if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
					t.Errorf("%s seed %d: Sum %x != scalar loop %x", name, seed,
						math.Float64bits(gotSum), math.Float64bits(wantSum))
				}

				if batched.FLOPs() != scalar.FLOPs() || batched.Faults() != scalar.Faults() {
					t.Errorf("%s seed %d: counters diverged: flops %d/%d faults %d/%d", name, seed,
						batched.FLOPs(), scalar.FLOPs(), batched.Faults(), scalar.Faults())
				}
			}
		}
	}
}

// TestModelOpStreamsPinned freezes every family's op stream at a sparse
// and a dense rate: a digest of every value the mixed stream produces,
// plus the unit's FLOP and fault counters, for each spec in specs().
// Scalar/batched identity cannot see a change to a model's schedule or
// corruption, because both paths share them, so this pin is what holds
// each family to its recorded bits.
func TestModelOpStreamsPinned(t *testing.T) {
	type pin struct{ digest, flops, faults uint64 }
	want := map[float64][]pin{
		0.08: {
			{0x05f12edcf65ac713, 1504, 129}, // default via nil
			{0x05f12edcf65ac713, 1504, 129}, // default by name
			{0x960746a32b0fea56, 1504, 129}, // stratified
			{0x0be933fb68ff839f, 1504, 126}, // burst, len 32, prob 0.4
			{0x5563758291a8d78c, 1504, 52},  // burst, defaults
			{0x771f165c9d0cd6ee, 1504, 0},   // memory: faults land in stored words
		},
		0.5: {
			{0xc05b19b5a2b47d18, 1504, 760},
			{0xc05b19b5a2b47d18, 1504, 760},
			{0x9a12c5d3a928f1ea, 1504, 760},
			{0x5ea24da468ec083a, 1504, 580},
			{0xf102db757b5a55b8, 1504, 722},
			{0x443ddb960e7f6f31, 1504, 0},
		},
	}
	for rate, pins := range want {
		for i, spec := range specs() {
			bits, flops, faults := stream(spec.Unit(rate, 2024))
			h := fnv.New64a()
			for _, b := range bits {
				var buf [8]byte
				for j := range buf {
					buf[j] = byte(b >> (8 * j))
				}
				h.Write(buf[:])
			}
			got := pin{h.Sum64(), flops, faults}
			if got != pins[i] {
				t.Errorf("%s@%g (spec %d): got {%#016x, %d, %d}, want pinned {%#016x, %d, %d}",
					spec.ModelName(), rate, i, got.digest, got.flops, got.faults,
					pins[i].digest, pins[i].flops, pins[i].faults)
			}
		}
	}
}

// TestDefaultFamilyMatchesWithFaultRate pins that selecting "default"
// explicitly is bit-identical to the classic fpu.WithFaultRate path — a
// campaign adding `"fault_model": {"name":"default"}` to its spec must
// not change any result byte.
func TestDefaultFamilyMatchesWithFaultRate(t *testing.T) {
	explicit := (&Spec{Name: Default}).Unit(0.05, 42)
	classic := fpu.New(fpu.WithFaultRate(0.05, 42))
	be, fe, _ := stream(explicit)
	bc, fc, _ := stream(classic)
	if fe != fc {
		t.Fatalf("FLOPs diverged: %d vs %d", fe, fc)
	}
	for i := range be {
		if be[i] != bc[i] {
			t.Fatalf("value %d diverged: %#x vs %#x", i, be[i], bc[i])
		}
	}
}

func TestObservedRates(t *testing.T) {
	const (
		rate = 0.03
		n    = 300000
	)
	for _, spec := range []*Spec{
		{Name: Stratified},
		{Name: Burst},
		{Name: Burst, BurstLen: 16, BurstProb: 0.9},
	} {
		u := spec.Unit(rate, 5)
		for i := 0; i < n; i++ {
			u.Add(1, float64(i))
		}
		got := float64(u.Faults()) / float64(n)
		if math.Abs(got-rate) > 0.2*rate {
			t.Errorf("%s(len=%v,prob=%v): observed rate %v, want %v +- 20%%",
				spec.ModelName(), spec.BurstLen, spec.BurstProb, got, rate)
		}
	}
}

// TestBurstFaultsAreClustered verifies the model's point: at equal
// long-run rate, burst faults arrive in runs while default faults arrive
// spread out. Clusters = maximal fault groups separated by gaps of more
// than 2× the window length.
func TestBurstFaultsAreClustered(t *testing.T) {
	const (
		rate = 0.01
		n    = 200000
		len_ = 64
	)
	clusters := func(u *fpu.Unit) (faults, groups int) {
		last := -10 * len_
		prev := uint64(0)
		for i := 0; i < n; i++ {
			u.Add(1, float64(i))
			if f := u.Faults(); f != prev {
				prev = f
				faults++
				if i-last > 2*len_ {
					groups++
				}
				last = i
			}
		}
		return faults, groups
	}
	bf, bg := clusters((&Spec{Name: Burst, BurstLen: len_}).Unit(rate, 9))
	df, dg := clusters((*Spec)(nil).Unit(rate, 9))
	if bf == 0 || df == 0 {
		t.Fatalf("degenerate run: burst %d faults, default %d faults", bf, df)
	}
	perBurst := float64(bf) / float64(bg)
	perDefault := float64(df) / float64(dg)
	if perBurst < 5 {
		t.Errorf("burst model: %.1f faults per cluster, want >= 5 (faults=%d clusters=%d)", perBurst, bf, bg)
	}
	if perBurst < 3*perDefault {
		t.Errorf("burst clustering %.1f not clearly above default clustering %.1f", perBurst, perDefault)
	}
}

func TestStratifiedClassWeights(t *testing.T) {
	for _, tc := range []struct {
		spec   *Spec
		lo, hi int // inclusive allowed flipped-bit range
	}{
		{&Spec{Name: Stratified, ExpWeight: fp(1), MantWeight: fp(0), SignWeight: fp(0)}, 52, 62},
		{&Spec{Name: Stratified, ExpWeight: fp(0), MantWeight: fp(1), SignWeight: fp(0)}, 0, 51},
		{&Spec{Name: Stratified, ExpWeight: fp(0), MantWeight: fp(0), SignWeight: fp(1)}, 63, 63},
	} {
		u := tc.spec.Unit(1, 17) // rate 1: every op faults
		for i := 0; i < 500; i++ {
			v := 1.5 + float64(i)
			got := u.Mul(v, 1)
			diff := math.Float64bits(got) ^ math.Float64bits(v)
			if diff == 0 {
				t.Fatalf("rate-1 stratified unit did not fault on op %d", i)
			}
			bit := 0
			for diff>>1 != 0 {
				diff >>= 1
				bit++
			}
			if bit < tc.lo || bit > tc.hi {
				t.Fatalf("weights (exp=%v mant=%v sign=%v): flipped bit %d outside [%d, %d]",
					*tc.spec.ExpWeight, *tc.spec.MantWeight, *tc.spec.SignWeight, bit, tc.lo, tc.hi)
			}
		}
	}
}

func TestMemoryModelFLOPsExact(t *testing.T) {
	n := 64
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i) + 0.5
		b[i] = float64(n-i) * 0.25
	}
	faulty := (&Spec{Name: Memory}).Unit(0.2, 33)
	exact := fpu.New()
	if got, want := faulty.Dot(a, b), exact.Dot(a, b); got != want {
		t.Errorf("memory-model Dot = %v, want exact %v", got, want)
	}
	s := 0.0
	for i := 0; i < 1000; i++ {
		s = faulty.Add(s, 1)
	}
	if s != 1000 {
		t.Errorf("memory-model scalar sum = %v, want exact 1000", s)
	}
	if f := faulty.Faults(); f != 0 {
		t.Errorf("memory model charged %d FPU faults, want 0", f)
	}
}

func TestMemoryModelCorruptsStoredState(t *testing.T) {
	const rate = 0.1
	u := (&Spec{Name: Memory}).Unit(rate, 71)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	u.CorruptSlice(xs)
	flipped := 0
	for _, v := range xs {
		if v != 1 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Fatal("memory model flipped nothing in 5000 words at rate 0.1")
	}
	got := float64(flipped) / float64(len(xs))
	if math.Abs(got-rate) > 0.3*rate {
		t.Errorf("observed flip rate %v, want %v +- 30%%", got, rate)
	}
	if inj := u.Model().Injected(); uint64(flipped) > inj {
		t.Errorf("flipped %d words but Injected reports %d", flipped, inj)
	}
}

// TestMemoryModelSliceChoppingInvariant pins that fault placement depends
// only on the cumulative word scan, not on how the solver chops its state
// into CorruptSlice calls — two 500-word scans strike the same words as
// one 1000-word scan.
func TestMemoryModelSliceChoppingInvariant(t *testing.T) {
	mk := func() []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 2.5
		}
		return xs
	}
	whole := mk()
	(&Spec{Name: Memory}).Unit(0.05, 123).CorruptSlice(whole)
	halves := mk()
	u := (&Spec{Name: Memory}).Unit(0.05, 123)
	u.CorruptSlice(halves[:500])
	u.CorruptSlice(halves[500:])
	for i := range whole {
		if math.Float64bits(whole[i]) != math.Float64bits(halves[i]) {
			t.Fatalf("word %d differs between whole-slice and chopped scans: %#x vs %#x",
				i, math.Float64bits(whole[i]), math.Float64bits(halves[i]))
		}
	}
}

func TestZeroRateIsReliable(t *testing.T) {
	for _, spec := range specs() {
		u := spec.Unit(0, 4)
		if !u.Reliable() {
			t.Errorf("%s: rate-0 unit should be reliable", spec.ModelName())
		}
	}
}
