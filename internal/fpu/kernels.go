package fpu

// Batched kernels: the vector fast path of the simulated FPU.
//
// The scalar methods (Add, Mul, …) pay one method call, one accounting
// update, and one fault-schedule check per floating point operation, which
// dominates the runtime of every figure sweep. The kernels below exploit
// the fault schedule instead: the Unit's safe counter holds how many
// upcoming operations are guaranteed fault-free (the run the model's last
// Step returned), so between faults a kernel runs a plain tight Go loop
// with no per-element dispatch, charges FLOP and energy accounting in
// bulk, spends the counter in one subtraction, and routes only the at-risk
// operation after each safe run through the model's Step/Corrupt path.
//
// Every kernel is bit-identical to the equivalent scalar-method loop under
// the same model seed: same operation order, same per-operation
// single-precision rounding, same LFSR draws, same flipped bits, and the
// same FLOP, per-op, and fault counters. This holds for every model by
// construction: scalar ops spend the same counter one operation at a time
// and reach the model through the same Step calls. The only permitted
// divergence is the energy accumulator, which is charged as opEnergy×n in
// one step rather than by n repeated additions and may therefore differ
// from the scalar path in the last ulp when opEnergy is not exactly
// representable. Each kernel call charges once, and Gemv charges once per
// row, as its per-row Dot calls would.
//
// Two rules shorten the critical path of the double-precision reductions
// (Dot, DotRev, Gemv), one serial add chain per row. First, their safe-run
// loops canonicalize NaN once per safe run, on the finished sum, instead
// of per element (see fix). Second, when the safe counter covers four
// whole Gemv rows, those rows run as four interleaved dot products: four
// independent add chains in place of one. Each chain adds in Dot's order
// and fault-free arithmetic does not depend on how independent operations
// interleave, so the bits are Dot's. Single precision, the elementwise
// kernels and Sum keep the per-element form.
//
// The explicit float64 conversions around products in the tight loops are
// load-bearing: they force the product to round separately from the
// following addition, forbidding fused-multiply-add contraction that would
// otherwise break bit-compatibility with the scalar path on architectures
// where the compiler fuses.

import "errors"

// ErrKernelLen is the panic value for kernel operand length mismatches,
// mirroring linalg.ErrShape (which fpu cannot import) as an inspectable
// error value.
var ErrKernelLen = errors.New("fpu: kernel operand length mismatch")

// charge bulk-charges accounting for n operations of class op.
func (u *Unit) charge(op Op, n int) {
	u.flops += uint64(n)
	u.perOp[op] += uint64(n)
	u.energy += u.opEnergy * float64(n)
}

// chargePair bulk-charges accounting for n (op1, op2) operation pairs.
func (u *Unit) chargePair(op1, op2 Op, n int) {
	u.flops += 2 * uint64(n)
	u.perOp[op1] += uint64(n)
	u.perOp[op2] += uint64(n)
	u.energy += u.opEnergy * float64(2*n)
}

// soloRun returns how many single-operation elements can run fault-free,
// capped at rem, and spends their operations from the safe counter. When
// the return value is less than rem, the next operation is at risk and
// must go through injectOp.
func (u *Unit) soloRun(rem int) int {
	if u.model == nil {
		return rem
	}
	if u.safe >= uint64(rem) {
		u.safe -= uint64(rem)
		return rem
	}
	run := int(u.safe)
	u.safe = 0
	return run
}

// pairRun is soloRun for elements costing two operations each. When the
// return value is less than rem, the next element spans an at-risk
// operation (its first operation may still be safe: an odd counter leaves
// one over for injectOp to spend).
func (u *Unit) pairRun(rem int) int {
	if u.model == nil {
		return rem
	}
	pairs := u.safe / 2
	if pairs >= uint64(rem) {
		u.safe -= 2 * uint64(rem)
		return rem
	}
	u.safe -= 2 * pairs
	return int(pairs)
}

// injectOp mirrors commit's rounding, NaN canonicalization, and injection
// for one operation whose accounting has already been bulk-charged. op and
// flop identify the operation for the observer exactly as commit would
// have: flop is the 1-based ordinal of this operation in the unit's FLOP
// stream, computed by the caller from the pre-charge counter, so scalar and
// batched kernels present identical fault placements to an attached
// Observer.
func (u *Unit) injectOp(op Op, flop uint64, v float64) float64 {
	if u.single {
		v = float64(float32(v))
	}
	if u.model == nil {
		return v
	}
	if v != v {
		v = canonNaN
	}
	if u.safe > 0 {
		u.safe--
		return v
	}
	return u.atRisk(op, flop, v)
}

// fix is the tight-loop counterpart of commit's NaN canonicalization: every
// result a kernel stores while a fault model is installed must collapse
// NaNs to canonNaN, exactly as the scalar methods do, or the two paths
// diverge on the first ambiguous-payload NaN (see canonNaN). The
// elementwise kernels, Sum and the single-precision loops call it per
// element. The double-precision reductions (Dot, DotRev, Gemv's four-row
// blocks) call it once per safe run, on the finished sum: NaN is sticky
// under addition, so a sum that ends non-NaN never held one, and a sum
// that ends NaN is canonNaN either way. A nil unit is reliable and is
// left raw.
func (u *Unit) fix(v float64) float64 {
	if v != v && u != nil && u.model != nil {
		return canonNaN
	}
	return v
}

// Dot returns aᵀb, bit-identical to the scalar loop
// s = u.Add(s, u.Mul(a[i], b[i])).
func (u *Unit) Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		var s float64
		for i := 0; i < n; i++ {
			s += float64(a[i] * b[i])
		}
		return s
	}
	base := u.flops
	u.chargePair(OpMul, OpAdd, n)
	var s float64
	for i := 0; i < n; {
		run := i + u.pairRun(n-i)
		if u.single {
			for ; i < run; i++ {
				s = u.fix(float64(float32(s + float64(float32(a[i]*b[i])))))
			}
		} else {
			for ; i < run; i++ {
				s += float64(a[i] * b[i])
			}
			s = u.fix(s)
		}
		if i < n {
			at := base + 2*uint64(i)
			s = u.injectOp(OpAdd, at+2, s+u.injectOp(OpMul, at+1, float64(a[i]*b[i])))
			i++
		}
	}
	return s
}

// DotRev returns Σ a[d]·b[len(b)−1−d]: a dot product with the second
// operand traversed backwards, the access pattern of a banded Toeplitz
// row. Bit-identical to the scalar loop s = u.Add(s, u.Mul(a[d], b[n−1−d])).
func (u *Unit) DotRev(a, b []float64) float64 {
	n := len(a)
	if len(b) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		var s float64
		for i := 0; i < n; i++ {
			s += float64(a[i] * b[n-1-i])
		}
		return s
	}
	base := u.flops
	u.chargePair(OpMul, OpAdd, n)
	var s float64
	for i := 0; i < n; {
		run := i + u.pairRun(n-i)
		if u.single {
			for ; i < run; i++ {
				s = u.fix(float64(float32(s + float64(float32(a[i]*b[n-1-i])))))
			}
		} else {
			for ; i < run; i++ {
				s += float64(a[i] * b[n-1-i])
			}
			s = u.fix(s)
		}
		if i < n {
			at := base + 2*uint64(i)
			s = u.injectOp(OpAdd, at+2, s+u.injectOp(OpMul, at+1, float64(a[i]*b[n-1-i])))
			i++
		}
	}
	return s
}

// Axpy sets y ← y + alpha·x, bit-identical to the scalar loop
// y[i] = u.Add(y[i], u.Mul(alpha, x[i])).
func (u *Unit) Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		for i := 0; i < n; i++ {
			y[i] += float64(alpha * x[i])
		}
		return
	}
	base := u.flops
	u.chargePair(OpMul, OpAdd, n)
	for i := 0; i < n; {
		run := i + u.pairRun(n-i)
		if u.single {
			for ; i < run; i++ {
				y[i] = u.fix(float64(float32(y[i] + float64(float32(alpha*x[i])))))
			}
		} else {
			for ; i < run; i++ {
				y[i] = u.fix(y[i] + float64(alpha*x[i]))
			}
		}
		if i < n {
			at := base + 2*uint64(i)
			y[i] = u.injectOp(OpAdd, at+2, y[i]+u.injectOp(OpMul, at+1, float64(alpha*x[i])))
			i++
		}
	}
}

// Xpay sets y ← x + alpha·y (the CG direction recurrence), bit-identical
// to the scalar loop y[i] = u.Add(x[i], u.Mul(alpha, y[i])).
func (u *Unit) Xpay(x []float64, alpha float64, y []float64) {
	n := len(x)
	if len(y) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		for i := 0; i < n; i++ {
			y[i] = x[i] + float64(alpha*y[i])
		}
		return
	}
	base := u.flops
	u.chargePair(OpMul, OpAdd, n)
	for i := 0; i < n; {
		run := i + u.pairRun(n-i)
		if u.single {
			for ; i < run; i++ {
				y[i] = u.fix(float64(float32(x[i] + float64(float32(alpha*y[i])))))
			}
		} else {
			for ; i < run; i++ {
				y[i] = u.fix(x[i] + float64(alpha*y[i]))
			}
		}
		if i < n {
			at := base + 2*uint64(i)
			y[i] = u.injectOp(OpAdd, at+2, x[i]+u.injectOp(OpMul, at+1, float64(alpha*y[i])))
			i++
		}
	}
}

// Sum returns Σ x[i], bit-identical to the scalar loop s = u.Add(s, x[i]).
func (u *Unit) Sum(x []float64) float64 {
	n := len(x)
	if u == nil {
		var s float64
		for i := 0; i < n; i++ {
			s += x[i]
		}
		return s
	}
	base := u.flops
	u.charge(OpAdd, n)
	var s float64
	for i := 0; i < n; {
		run := i + u.soloRun(n-i)
		if u.single {
			for ; i < run; i++ {
				s = u.fix(float64(float32(s + x[i])))
			}
		} else {
			for ; i < run; i++ {
				s = u.fix(s + x[i])
			}
		}
		if i < n {
			s = u.injectOp(OpAdd, base+uint64(i)+1, s+x[i])
			i++
		}
	}
	return s
}

// Scale sets x ← alpha·x, bit-identical to the scalar loop
// x[i] = u.Mul(alpha, x[i]).
func (u *Unit) Scale(alpha float64, x []float64) {
	n := len(x)
	if u == nil {
		for i := 0; i < n; i++ {
			x[i] = alpha * x[i]
		}
		return
	}
	base := u.flops
	u.charge(OpMul, n)
	for i := 0; i < n; {
		run := i + u.soloRun(n-i)
		if u.single {
			for ; i < run; i++ {
				x[i] = u.fix(float64(float32(alpha * x[i])))
			}
		} else {
			for ; i < run; i++ {
				x[i] = u.fix(alpha * x[i])
			}
		}
		if i < n {
			x[i] = u.injectOp(OpMul, base+uint64(i)+1, alpha*x[i])
			i++
		}
	}
}

// AddVec sets dst ← a + b elementwise, bit-identical to the scalar loop
// dst[i] = u.Add(a[i], b[i]). dst may alias a or b.
func (u *Unit) AddVec(a, b, dst []float64) {
	n := len(a)
	if len(b) != n || len(dst) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		for i := 0; i < n; i++ {
			dst[i] = a[i] + b[i]
		}
		return
	}
	base := u.flops
	u.charge(OpAdd, n)
	for i := 0; i < n; {
		run := i + u.soloRun(n-i)
		if u.single {
			for ; i < run; i++ {
				dst[i] = u.fix(float64(float32(a[i] + b[i])))
			}
		} else {
			for ; i < run; i++ {
				dst[i] = u.fix(a[i] + b[i])
			}
		}
		if i < n {
			dst[i] = u.injectOp(OpAdd, base+uint64(i)+1, a[i]+b[i])
			i++
		}
	}
}

// SubVec sets dst ← a − b elementwise, bit-identical to the scalar loop
// dst[i] = u.Sub(a[i], b[i]). dst may alias a or b.
func (u *Unit) SubVec(a, b, dst []float64) {
	n := len(a)
	if len(b) != n || len(dst) != n {
		panic(ErrKernelLen)
	}
	if u == nil {
		for i := 0; i < n; i++ {
			dst[i] = a[i] - b[i]
		}
		return
	}
	base := u.flops
	u.charge(OpSub, n)
	for i := 0; i < n; {
		run := i + u.soloRun(n-i)
		if u.single {
			for ; i < run; i++ {
				dst[i] = u.fix(float64(float32(a[i] - b[i])))
			}
		} else {
			for ; i < run; i++ {
				dst[i] = u.fix(a[i] - b[i])
			}
		}
		if i < n {
			dst[i] = u.injectOp(OpSub, base+uint64(i)+1, a[i]-b[i])
			i++
		}
	}
}

// Gemv sets dst ← A·x for the row-major rows×cols matrix a, bit-identical
// to the scalar per-row dot loops. Four rows whose operations the safe
// counter covers run as one block of four interleaved dot products (see
// take4); every other row is one batched Dot.
func (u *Unit) Gemv(a []float64, rows, cols int, x, dst []float64) {
	if len(a) != rows*cols || len(x) != cols || len(dst) != rows {
		panic(ErrKernelLen)
	}
	for i := 0; i < rows; {
		if i+4 <= rows && u.take4(cols) {
			s0, s1, s2, s3 := dot4(a[i*cols:(i+4)*cols], x)
			dst[i], dst[i+1], dst[i+2], dst[i+3] = u.fix(s0), u.fix(s1), u.fix(s2), u.fix(s3)
			i += 4
			continue
		}
		dst[i] = u.Dot(a[i*cols:(i+1)*cols], x)
		i++
	}
}

// take4 reports whether the next four cols-wide Gemv rows can run as one
// fault-free double-precision block. If so it charges their accounting
// row by row, as four Dot calls would, and spends their operations from
// the safe counter.
func (u *Unit) take4(cols int) bool {
	if u == nil {
		return true
	}
	if u.single {
		return false
	}
	if u.model != nil {
		need := 8 * uint64(cols)
		if u.safe < need {
			return false
		}
		u.safe -= need
	}
	for r := 0; r < 4; r++ {
		u.chargePair(OpMul, OpAdd, cols)
	}
	return true
}

// dot4 returns the dot products of x with the four consecutive len(x)-wide
// rows of a. Each sum runs in Dot's order, so the results are Dot's bits;
// the four independent add chains interleave.
func dot4(a, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	r0, r1, r2, r3 := a[:n], a[n:][:n], a[2*n:][:n], a[3*n:][:n]
	for j, xj := range x {
		s0 += float64(r0[j] * xj)
		s1 += float64(r1[j] * xj)
		s2 += float64(r2[j] * xj)
		s3 += float64(r3[j] * xj)
	}
	return s0, s1, s2, s3
}

// Norm2 returns ‖x‖₂, bit-identical to u.Sqrt of the scalar dot loop.
func (u *Unit) Norm2(x []float64) float64 {
	return u.Sqrt(u.Dot(x, x))
}
