package fpu_test

import (
	"testing"

	"robustify/internal/fpu"
	"robustify/internal/fpu/faultmodel"
)

// BenchmarkUnitAdd is the scalar faulty-op rung of the perf ladder: one
// Unit.Add per iteration, so ns/op is the cost of one simulated FLOP on
// the scalar path (accounting, schedule, and at dense rates the
// corruption itself). Rate 0 runs the default injector with no faults;
// the burst case runs the correlated model at the same 0.1 long-run rate.
func BenchmarkUnitAdd(b *testing.B) {
	for _, bc := range []struct {
		name string
		unit func() *fpu.Unit
	}{
		{"rate=0", func() *fpu.Unit { return fpu.New(fpu.WithInjector(fpu.NewInjector(0, 7))) }},
		{"rate=0.1", func() *fpu.Unit { return fpu.New(fpu.WithFaultRate(0.1, 7)) }},
		{"rate=0.5", func() *fpu.Unit { return fpu.New(fpu.WithFaultRate(0.5, 7)) }},
		{"burst/rate=0.1", func() *fpu.Unit { return (&faultmodel.Spec{Name: faultmodel.Burst}).Unit(0.1, 7) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			u := bc.unit()
			b.ReportAllocs()
			acc := 0.0
			for b.Loop() {
				acc = u.Add(acc, 1.0000001)
			}
		})
	}
}
