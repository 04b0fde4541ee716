package fpu

import (
	"math"
	"testing"
)

func TestLFSRZeroSeedRemapped(t *testing.T) {
	l := NewLFSR(0)
	if l.Next() == 0 {
		t.Error("zero seed must be remapped to a nonzero state")
	}
}

func TestLFSRNeverZero(t *testing.T) {
	l := NewLFSR(12345)
	for i := 0; i < 100000; i++ {
		if l.Next() == 0 {
			t.Fatalf("LFSR reached the all-zero fixed point at step %d", i)
		}
	}
}

func TestLFSRDeterministic(t *testing.T) {
	a, b := NewLFSR(99), NewLFSR(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestLFSRFloat64Range(t *testing.T) {
	l := NewLFSR(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := l.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestLFSRIntnBounds(t *testing.T) {
	l := NewLFSR(5)
	for i := 0; i < 10000; i++ {
		v := l.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestLFSRIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewLFSR(1).Intn(0)
}

func TestUniformGapMean(t *testing.T) {
	l := NewLFSR(31)
	const mean = 50.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := l.UniformGap(mean)
		if g < 1 || g > uint64(2*mean)-1 {
			t.Fatalf("gap %d outside {1..%d}", g, uint64(2*mean)-1)
		}
		sum += float64(g)
	}
	if got := sum / n; math.Abs(got-mean) > 0.03*mean {
		t.Errorf("mean gap = %v, want ~%v", got, mean)
	}
}

func TestUniformGapSmallMean(t *testing.T) {
	l := NewLFSR(1)
	if g := l.UniformGap(0.5); g != 1 {
		t.Errorf("UniformGap(0.5) = %d, want 1", g)
	}
	if g := l.UniformGap(1); g != 1 {
		t.Errorf("UniformGap(1) = %d, want 1", g)
	}
}

// TestLFSRStreamGolden pins the register's output stream itself: the first
// 64 Next and Uint64 words for three seeds (0 exercises the zero-seed
// remap). Every fault gap and flipped bit in the repository is drawn from
// this stream, so a rewrite of the step or the mixer that shifts it would
// move every pinned result; two-instance equality alone cannot see that.
func TestLFSRStreamGolden(t *testing.T) {
	for _, g := range lfsrGolden {
		next, words := NewLFSR(g.seed), NewLFSR(g.seed)
		for i := range g.next {
			if got := next.Next(); got != g.next[i] {
				t.Fatalf("seed %#x: Next #%d = %#016x, want %#016x", g.seed, i, got, g.next[i])
			}
			if got := words.Uint64(); got != g.words[i] {
				t.Fatalf("seed %#x: Uint64 #%d = %#016x, want %#016x", g.seed, i, got, g.words[i])
			}
		}
	}
}

// lfsrGolden holds the first 64 outputs of Next and of Uint64, each from a
// fresh register, per seed.
var lfsrGolden = []struct {
	seed        uint64
	next, words [64]uint64
}{
	{
		seed: 0x0,
		next: [64]uint64{
			0x971bbcdcbfa53e0a, 0x4b8dde6e5fd29f05, 0xfdc6ef372fe94f82, 0x7ee3779b97f4a7c1,
			0xe771bbcdcbfa53e0, 0x73b8dde6e5fd29f0, 0x39dc6ef372fe94f8, 0x1cee3779b97f4a7c,
			0x0e771bbcdcbfa53e, 0x073b8dde6e5fd29f, 0xdb9dc6ef372fe94f, 0xb5cee3779b97f4a7,
			0x82e771bbcdcbfa53, 0x9973b8dde6e5fd29, 0x94b9dc6ef372fe94, 0x4a5cee3779b97f4a,
			0x252e771bbcdcbfa5, 0xca973b8dde6e5fd2, 0x654b9dc6ef372fe9, 0xeaa5cee3779b97f4,
			0x7552e771bbcdcbfa, 0x3aa973b8dde6e5fd, 0xc554b9dc6ef372fe, 0x62aa5cee3779b97f,
			0xe9552e771bbcdcbf, 0xacaa973b8dde6e5f, 0x8e554b9dc6ef372f, 0x9f2aa5cee3779b97,
			0x979552e771bbcdcb, 0x93caa973b8dde6e5, 0x91e554b9dc6ef372, 0x48f2aa5cee3779b9,
			0xfc79552e771bbcdc, 0x7e3caa973b8dde6e, 0x3f1e554b9dc6ef37, 0xc78f2aa5cee3779b,
			0xbbc79552e771bbcd, 0x85e3caa973b8dde6, 0x42f1e554b9dc6ef3, 0xf978f2aa5cee3779,
			0xa4bc79552e771bbc, 0x525e3caa973b8dde, 0x292f1e554b9dc6ef, 0xcc978f2aa5cee377,
			0xbe4bc79552e771bb, 0x8725e3caa973b8dd, 0x9b92f1e554b9dc6e, 0x4dc978f2aa5cee37,
			0xfee4bc79552e771b, 0xa7725e3caa973b8d, 0x8bb92f1e554b9dc6, 0x45dc978f2aa5cee3,
			0xfaee4bc79552e771, 0xa57725e3caa973b8, 0x52bb92f1e554b9dc, 0x295dc978f2aa5cee,
			0x14aee4bc79552e77, 0xd257725e3caa973b, 0xb12bb92f1e554b9d, 0x8095dc978f2aa5ce,
			0x404aee4bc79552e7, 0xf8257725e3caa973, 0xa412bb92f1e554b9, 0x8a095dc978f2aa5c,
		},
		words: [64]uint64{
			0x8a35ccb54dbf5c53, 0x3972b1793d3007f9, 0xd652161219fd4a6d, 0x0955d4e253b248c3,
			0x676cc43ad32ab9a4, 0x86346cb6648efb40, 0x3d1d62f2ec9eb153, 0x222b45c5a3b2e53d,
			0xcf3ede5406da8734, 0x1e726d8e990c2103, 0x86092a044d6bf3ac, 0x7e266078e8babe26,
			0xb6c823dc0596432b, 0x5fb5569bb26dd6ac, 0xef399de4f75ee175, 0xa8fe23ee91c9b5a2,
			0x2e06ae0d9fed22fb, 0x69833b56dfc1dd50, 0xa0d1e68c82a8922b, 0xe15ed80f9fa6a08e,
			0x7c20fb5225f2408e, 0x547f4cd29ad7d940, 0x9e6a207a3aaab497, 0xb072170a1d8fa2e7,
			0xc5a9763b5c4cc38b, 0x1353eca5ac9a4469, 0x85f7ec53edb398a5, 0xbd4cfa1289d7c4a2,
			0xf58937614d044c7b, 0xb42b24a888ec19d1, 0xd69da3ad150c8d57, 0x17bb64e0af246d93,
			0x2b907b68b7d198e7, 0x7d0e45fdfb37780e, 0xfdf9a6cbaba5f9ee, 0x7e63ea078b7591e6,
			0xf5086483bfd3c6f2, 0x156a87947da85880, 0x4f5a39b31e473ed1, 0x6fdf4da71a6a1bbf,
			0x4c869d8ab92b89de, 0x3574f1a376c275ff, 0xf3793a10a4ca2395, 0x6e0c71b5b5ac1827,
			0xd10c776e0fb628f5, 0xf310886510cf7497, 0x0fae4cd28107159a, 0xdce930626ccea96e,
			0xe2f6673eae697bc5, 0x4d9041bd17fee132, 0x2599f8009c96e2c7, 0xa4a08fcf394439ed,
			0x5b0455011e93b03f, 0xe698e143379a87d0, 0x1b19b97d7f6a6e0d, 0xcd9544d1106b078d,
			0xa0044dcd36d6869a, 0x3b8609e384c01528, 0xad7ef28861a055e0, 0x2482b8f2b7193f7c,
			0xe93207bad4885ef6, 0x16ae11cab86d638b, 0xde3375c91a737bd4, 0x0c2028ef6eefd590,
		},
	},
	{
		seed: 0x1,
		next: [64]uint64{
			0xd800000000000000, 0x6c00000000000000, 0x3600000000000000, 0x1b00000000000000,
			0x0d80000000000000, 0x06c0000000000000, 0x0360000000000000, 0x01b0000000000000,
			0x00d8000000000000, 0x006c000000000000, 0x0036000000000000, 0x001b000000000000,
			0x000d800000000000, 0x0006c00000000000, 0x0003600000000000, 0x0001b00000000000,
			0x0000d80000000000, 0x00006c0000000000, 0x0000360000000000, 0x00001b0000000000,
			0x00000d8000000000, 0x000006c000000000, 0x0000036000000000, 0x000001b000000000,
			0x000000d800000000, 0x0000006c00000000, 0x0000003600000000, 0x0000001b00000000,
			0x0000000d80000000, 0x00000006c0000000, 0x0000000360000000, 0x00000001b0000000,
			0x00000000d8000000, 0x000000006c000000, 0x0000000036000000, 0x000000001b000000,
			0x000000000d800000, 0x0000000006c00000, 0x0000000003600000, 0x0000000001b00000,
			0x0000000000d80000, 0x00000000006c0000, 0x0000000000360000, 0x00000000001b0000,
			0x00000000000d8000, 0x000000000006c000, 0x0000000000036000, 0x000000000001b000,
			0x000000000000d800, 0x0000000000006c00, 0x0000000000003600, 0x0000000000001b00,
			0x0000000000000d80, 0x00000000000006c0, 0x0000000000000360, 0x00000000000001b0,
			0x00000000000000d8, 0x000000000000006c, 0x0000000000000036, 0x000000000000001b,
			0xd80000000000000d, 0xb400000000000006, 0x5a00000000000003, 0xf500000000000001,
		},
		words: [64]uint64{
			0x29044625c94dfb91, 0xedc8c0bac33cc82a, 0xd182c22e65ad32c2, 0x931179e596c6889a,
			0x14e198a43fa23a16, 0xef51dd98addaf2dc, 0x1adb9792ab1a72ac, 0xd473b24d004affbb,
			0x2741957cd8741114, 0x0536fd2bf40ff072, 0xb4a80bdc499b5480, 0x3317badc0c78f7db,
			0x4343ee2635deae48, 0x09006e47c15465d9, 0x466426bb8eedb6af, 0x76df95bbdd96a804,
			0x215d5e235962cc4c, 0x35017b117ce5c764, 0x0b0cc87f5d01aa41, 0x631a2b34c105b24e,
			0xe11527d1e6269bc3, 0x1f4e9eb33d34f72b, 0xd31d99338ec5a707, 0xf44a643a09c24f91,
			0xb41847a31efd22e6, 0x87717f0f032d0392, 0x8135b78e319a7267, 0x672781d3343e28ed,
			0x76e9ff868bfa5cbf, 0xdb16afddd009c27f, 0xf2c865f67aa6534b, 0xf23f96e2d7736a5a,
			0xfe06319e7b7daeba, 0xa0091ebc2f4728dd, 0x6b4e46792fbdec12, 0x8fb292d65d3dd819,
			0x4aa37ee73011253c, 0x320a615e72569084, 0x28921fbbb7e52834, 0xd9c4cc716ae9639a,
			0xf46243c487d8eca0, 0x199b7000b91fba18, 0x8e3e0a58b0a741c0, 0x89ed26a73d528936,
			0x206a205bf63fb86a, 0x9a8da44a02d6bef4, 0x06a9ddcf332e9283, 0x73adce0906850937,
			0x6230f71626bac329, 0xec2eb52b5669fb72, 0x79a9bc0ba0e021ee, 0x3f9629f95f8a0a05,
			0x88d6aeb34b012a0e, 0x54c8ba30cab852d4, 0xc30cea94a7ef93cb, 0x431cf9f02ae01089,
			0xc9a246f21baecb68, 0xcd19f198025ce714, 0xbc46b610e9d3f375, 0x974e35325981068a,
			0xd86fdc92a8eb1731, 0x63aa0367ef7c0911, 0xdc3e47bb2ce37f1e, 0xcf7cb161973860dc,
		},
	},
	{
		seed: 0xdeadbeef,
		next: [64]uint64{
			0xd80000006f56df77, 0xb400000037ab6fbb, 0x820000001bd5b7dd, 0x990000000deadbee,
			0x4c80000006f56df7, 0xfe400000037ab6fb, 0xa720000001bd5b7d, 0x8b90000000deadbe,
			0x45c80000006f56df, 0xfae400000037ab6f, 0xa5720000001bd5b7, 0x8ab90000000deadb,
			0x9d5c80000006f56d, 0x96ae400000037ab6, 0x4b5720000001bd5b, 0xfdab90000000dead,
			0xa6d5c80000006f56, 0x536ae400000037ab, 0xf1b5720000001bd5, 0xa0dab90000000dea,
			0x506d5c80000006f5, 0xf036ae400000037a, 0x781b5720000001bd, 0xe40dab90000000de,
			0x7206d5c80000006f, 0xe1036ae400000037, 0xa881b5720000001b, 0x8c40dab90000000d,
			0x9e206d5c80000006, 0x4f1036ae40000003, 0xff881b5720000001, 0xa7c40dab90000000,
			0x53e206d5c8000000, 0x29f1036ae4000000, 0x14f881b572000000, 0x0a7c40dab9000000,
			0x053e206d5c800000, 0x029f1036ae400000, 0x014f881b57200000, 0x00a7c40dab900000,
			0x0053e206d5c80000, 0x0029f1036ae40000, 0x0014f881b5720000, 0x000a7c40dab90000,
			0x00053e206d5c8000, 0x00029f1036ae4000, 0x00014f881b572000, 0x0000a7c40dab9000,
			0x000053e206d5c800, 0x000029f1036ae400, 0x000014f881b57200, 0x00000a7c40dab900,
			0x0000053e206d5c80, 0x0000029f1036ae40, 0x0000014f881b5720, 0x000000a7c40dab90,
			0x00000053e206d5c8, 0x00000029f1036ae4, 0x00000014f881b572, 0x0000000a7c40dab9,
			0xd80000053e206d5c, 0x6c0000029f1036ae, 0x360000014f881b57, 0xc3000000a7c40dab,
		},
		words: [64]uint64{
			0x42d8f8d7912c99e6, 0x2e8947fc11341d59, 0xfe8e69c2ee27a4f7, 0x213da28aff8904a4,
			0x1dfd60a30fdd79c9, 0xc733fc4495162245, 0xdbc057bb294055d8, 0xc778046668247c7f,
			0x0ef27b293d732df4, 0x6564679c6de42f0b, 0x214f2459f592d38c, 0xc959fe6e84df3ac4,
			0xc07c1d5a40df0b1b, 0x020832bf0cd91362, 0x405c418a172c76b4, 0xa94c7ff2b2866371,
			0x441bd498323ae742, 0x5215b73fd19057c8, 0x3865bc120ebecad0, 0xf874e4d220f31246,
			0xbc4a4e5e17d5eaa7, 0xd0b06c40e379e655, 0x1cc91c3149302a59, 0x650ab79b0ee1f7a0,
			0x01fe2d4779210434, 0x2f3f58481f8b1daf, 0x384b1b8e7b30396b, 0x0c6cce00cea1df79,
			0x84d0b5ee7364f80c, 0x66d488865fbfc466, 0x731574c3e670e4d6, 0xa7125683176650a4,
			0x3ad4647cfa5d8104, 0xc8beb66f64beec82, 0xdc4d0f6965008c02, 0x7d76ce4d7154ca98,
			0x129c33ded019f114, 0x230023b6d38108d1, 0xa0e11777bdcc3abc, 0xe2bc602cb0cad972,
			0xef45215fe8b5281d, 0x66ac7fbe58b2227e, 0x0ded7274f636827b, 0xdfd25759e9a0f799,
			0x072815686d2703bf, 0x727cbfa8a60ff895, 0xa633daaccff39a73, 0xb991b2b84066dd68,
			0x607065535eb79ed0, 0x9c36049d95a2bbbb, 0x36517e7ddf553c7e, 0xea9a42987b81e38e,
			0x053945bcaa2d9ada, 0x6011577b39120f28, 0xaf5ec1b44dd6c085, 0x76d5e24848cdca22,
			0xc6d53599dcaa459b, 0x4e420c0b8a0ffb2f, 0xf940087de048c69e, 0x763c38e3aaf0f471,
			0xe7faaa1d53d427a7, 0x8db875faa08d183e, 0xde59ead54e7ae24f, 0x5835570581f58d76,
		},
	},
}
