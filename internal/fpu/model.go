package fpu

// FaultModel is the pluggable fault-injection strategy of a Unit: it decides,
// deterministically per seed, which FPU results are corrupted and how. The
// default implementation is *Injector (uniform-rate, LFSR-spaced single-bit
// flips — the paper's FPGA injector); internal/fpu/faultmodel adds
// significance-stratified, burst/correlated, and memory-resident variants.
//
// The schedule is advanced through one method. Step accounts one at-risk
// operation, reports whether its result is corrupted (Corrupt then
// produces the faulty word), and returns the length of the guaranteed
// fault-free run that follows, which it consumes in the same call. The
// Unit holds that run in its own counter and spends it one operation at a
// time on the scalar path, or in blocks in the batched kernels, so a model
// is consulted only when the counter reaches zero: a fault-free operation
// costs no interface call under any model. Because scalar ops and kernels
// spend the same counter and reach the model through the same Step calls,
// the batched kernels are bit-identical to the scalar methods under every
// model by construction.
//
// Handing out a safe run must not move randomness forward in time. Corrupt
// draws for the hit operation after Step returns, so a draw that belongs
// to the end of the safe run (the burst model's next window length) waits
// for the next Step; drawing it eagerly would reorder the model's LFSR
// stream.
//
// Models are not safe for concurrent use; like a Unit, each worker owns its
// own instance.
type FaultModel interface {
	// Name identifies the model family ("default", "stratified", ...).
	Name() string
	// Rate returns the configured average faults per operation (for the
	// memory model: per word scanned).
	Rate() float64
	// Injected returns how many faults the model has delivered.
	Injected() uint64
	// Step accounts one operation against the fault schedule, reports
	// whether that operation's result is corrupted, and consumes and
	// returns the number of operations after it that are guaranteed
	// fault-free (math.MaxUint64 for a schedule that never fires). The
	// operation after the safe run is merely at risk: the next Step may
	// still report false (burst windows corrupt probabilistically).
	Step() (hit bool, safe uint64)
	// Corrupt returns the corrupted form of v. It is called only after
	// Step reported a hit for the operation producing v.
	Corrupt(v float64) float64
}

// MemoryFaulter is implemented by fault models that corrupt stored data
// between solver iterations rather than (or in addition to) FPU results.
// Solvers expose their persistent state via Unit.CorruptSlice at iteration
// boundaries; models without the interface leave memory untouched.
type MemoryFaulter interface {
	// CorruptSlice exposes one stored vector to the model, which may flip
	// bits in place. The scan consumes the model's fault schedule word by
	// word, so placement is deterministic per seed.
	CorruptSlice(xs []float64)
}
