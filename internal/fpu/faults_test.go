package fpu

import (
	"math"
	"testing"
)

// TestSampleLookupMatchesFullSearch: the bucketed Sample fast path must
// return exactly what the plain CDF binary search returns, for every
// distribution shape and for adversarial variates at bucket and CDF
// boundaries; and SampleWord must return exactly what Sample returns for
// the variate LFSR.Float64 builds from the same word, including the words
// on each side of every bucket boundary.
func TestSampleLookupMatchesFullSearch(t *testing.T) {
	// stratified mirrors the faultmodel package's class-weighted shape
	// (exponent 2, mantissa 1, sign 0.25, each spread over its field).
	var stratified [WordBits]float64
	for bit := range stratified {
		switch {
		case bit < 52:
			stratified[bit] = 1.0 / 52
		case bit < 63:
			stratified[bit] = 2.0 / 11
		default:
			stratified[bit] = 0.25
		}
	}
	dists := []BitDistribution{
		MeasuredDistribution(),
		EmulatedDistribution(),
		UniformDistribution(),
		LowOrderDistribution(),
		NewBitDistribution("stratified", stratified),
	}
	for _, d := range dists {
		check := func(u float64) {
			if got, want := d.Sample(u), d.search(u, 0, WordBits-1); got != want {
				t.Fatalf("%s: Sample(%g) = %d, full search %d", d.Name(), u, got, want)
			}
		}
		checkWord := func(w uint64) {
			if got, want := d.SampleWord(w), d.Sample(float64(w>>11)/(1<<53)); got != want {
				t.Fatalf("%s: SampleWord(%#016x) = %d, Sample %d", d.Name(), w, got, want)
			}
		}
		rng := NewLFSR(5)
		for i := 0; i < 20000; i++ {
			check(rng.Float64())
		}
		words := NewLFSR(5)
		for i := 0; i < 20000; i++ {
			checkWord(words.Uint64())
		}
		for k := uint64(0); k < sampleBuckets; k++ {
			checkWord(k << 56)
			checkWord(k<<56 - 1) // k = 0 wraps to the all-ones word
		}
		for k := 0; k <= sampleBuckets; k++ {
			u := float64(k) / sampleBuckets
			check(u)
			check(math.Nextafter(u, 0))
			if u < 1 {
				check(math.Nextafter(u, 1))
			}
		}
		for _, c := range d.cdf {
			check(c)
			check(math.Nextafter(c, 0))
			if c < 1 {
				check(math.Nextafter(c, 1))
			}
			// The words whose variates land on and beside the CDF step
			// exercise SampleWord's search inside multi-bit buckets.
			if m := uint64(c * (1 << 53)); m > 0 && m < 1<<53-1 {
				checkWord((m - 1) << 11)
				checkWord(m << 11)
				checkWord((m + 1) << 11)
			}
		}
	}
}

// TestRescheduleMatchesUniformGap: the injector's cached gap range must
// reproduce LFSR.UniformGap(1/rate) draw for draw.
func TestRescheduleMatchesUniformGap(t *testing.T) {
	for _, rate := range []float64{1e-6, 1e-3, 0.01, 0.25, 0.5, 0.9, 0.999, 1} {
		in := NewInjector(rate, 42)
		rng := NewLFSR(42)
		for i := 0; i < 200; i++ {
			want := rng.UniformGap(1 / rate)
			if in.countdown != want {
				t.Fatalf("rate %g draw %d: countdown %d, UniformGap %d", rate, i, in.countdown, want)
			}
			in.reschedule()
		}
	}
}
