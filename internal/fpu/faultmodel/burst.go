package faultmodel

import (
	"math"

	"robustify/internal/fpu"
)

// defaultBurstLen is the default mean low-voltage window length in FLOPs.
const defaultBurstLen = 64

// burstModel delivers correlated faults: instead of the default model's
// independent LFSR-spaced flips, the supply voltage droops for a window of
// ~meanLen consecutive operations during which each result is corrupted
// with probability prob, then recovers for an LFSR-drawn gap. The default
// in-window probability is the voltage curve's saturated MaxRate — a
// droop deep enough to matter pushes the FPU onto the flat top of
// fpu.VoltageModel's error-rate curve, where roughly half of all results
// miss timing.
//
// The closed/open phases map directly onto the Unit's safe counter: a
// closed phase is one long safe run (Step hands out the ops left in the
// phase), while an open window hands out none, so every in-window op
// routes through Step's Bernoulli draw. The gap length is sized so the
// long-run fault rate still equals the sweep's configured rate:
//
//	rate = prob · meanLen / (meanLen + meanGap)
//	  ⇒ meanGap = meanLen · (prob/rate − 1)
type burstModel struct {
	rate    float64
	meanLen float64
	prob    float64
	meanGap float64
	dist    fpu.BitDistribution
	rng     *fpu.LFSR

	// open reports whether the voltage window is currently drooped; left
	// is how many operations remain in the current phase, or 0 once Step
	// has handed a closed phase's rest out as a safe run. The model
	// starts closed so low rates keep the default model's long fault-free
	// run-up.
	open     bool
	left     uint64
	injected uint64
}

// newBurst builds the model for one trial. Zero meanLen and prob select
// the defaults (64 ops, and the voltage model's MaxRate).
//
//lint:fpu-exempt fault-model construction: gap/rate algebra runs once per trial, outside the simulated datapath
func newBurst(rate float64, seed uint64, meanLen, prob float64) fpu.FaultModel {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if meanLen <= 0 {
		meanLen = defaultBurstLen
	}
	if prob <= 0 {
		prob = fpu.DefaultVoltageModel().MaxRate
	}
	if prob > 1 {
		prob = 1
	}
	b := &burstModel{
		rate:    rate,
		meanLen: meanLen,
		prob:    prob,
		dist:    fpu.EmulatedDistribution(),
		rng:     fpu.NewLFSR(seed),
	}
	if rate > 0 {
		// A requested rate at or above the in-window probability cannot be
		// reached by spacing windows out; clamp to back-to-back windows.
		b.meanGap = meanLen * (prob/rate - 1)
		if b.meanGap < 1 {
			b.meanGap = 1
		}
		b.left = b.rng.UniformGap(b.meanGap)
	}
	return b
}

// Name identifies the burst model.
func (b *burstModel) Name() string { return Burst }

// Rate returns the configured long-run faults-per-FLOP rate.
func (b *burstModel) Rate() float64 { return b.rate }

// Injected returns how many faults the model has delivered.
func (b *burstModel) Injected() uint64 { return b.injected }

// advance retires one operation from the current phase, flipping the
// phase and drawing the next one's length when it empties.
func (b *burstModel) advance() {
	b.left--
	if b.left > 0 {
		return
	}
	b.open = !b.open
	if b.open {
		b.left = b.rng.UniformGap(b.meanLen)
	} else {
		b.left = b.rng.UniformGap(b.meanGap)
	}
}

// Step accounts one operation and reports whether its result is
// corrupted: never during a closed (nominal-voltage) phase, and with
// probability prob during an open window. When the operation leaves the
// model in a closed phase, the rest of that phase is the safe run: Step
// hands it out and marks the phase spent (left 0). The next window opens
// only at the next Step, which draws its length first. Drawing it here
// instead would put the draw before the Corrupt of this operation and
// shift the LFSR stream; at the next Step it lands exactly where the
// phase's last operation would have drawn it (closed-phase operations
// draw nothing).
//
//lint:fpu-exempt fault-model mechanism: the Bernoulli threshold compare is scheduler state, not simulated application math
func (b *burstModel) Step() (hit bool, safe uint64) {
	if b.rate <= 0 {
		return false, math.MaxUint64
	}
	if b.left == 0 {
		b.left = 1
		b.advance()
	}
	hit = b.open && b.rng.Float64() < b.prob
	if hit {
		b.injected++
	}
	b.advance()
	if b.open {
		return hit, 0
	}
	safe, b.left = b.left, 0
	return hit, safe
}

// Corrupt flips one distribution-drawn bit of v — the same emulated
// timing-fault histogram as the default model, since burst faults are the
// same physical mechanism arriving in clusters.
func (b *burstModel) Corrupt(v float64) float64 {
	bit := b.dist.SampleWord(b.rng.Uint64())
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
}
