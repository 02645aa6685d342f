package mp

import (
	"math/big"
	"math/rand"
	"testing"
)

// refCtx is the Montgomery arithmetic this package used before the limb
// kernel: REDC over math/big with R = 2^(32·words), and the original
// exponentiation loops. It lives only in tests, as the oracle the limb
// kernel must match bit for bit: results, extra-reduction flags, cycle
// charges and traces.
type refCtx struct {
	c      *MontCtx // cycle costs
	n      *big.Int
	rbits  uint
	rMask  *big.Int
	nPrime *big.Int
	rr     *big.Int
	one    *big.Int
}

func newRefCtx(t testing.TB, n *big.Int) *refCtx {
	t.Helper()
	c, err := NewMontCtx(n)
	if err != nil {
		t.Fatal(err)
	}
	rbits := uint(c.Words() * WordBits)
	r := new(big.Int).Lsh(big.NewInt(1), rbits)
	inv := new(big.Int).ModInverse(n, r)
	return &refCtx{
		c:      c,
		n:      n,
		rbits:  rbits,
		rMask:  new(big.Int).Sub(r, big.NewInt(1)),
		nPrime: new(big.Int).Sub(r, inv),
		rr:     new(big.Int).Mod(new(big.Int).Mul(r, r), n),
		one:    new(big.Int).Mod(r, n),
	}
}

func (c *refCtx) redc(t *big.Int) (*big.Int, bool) {
	m := new(big.Int).And(t, c.rMask)
	m.Mul(m, c.nPrime)
	m.And(m, c.rMask)
	u := new(big.Int).Mul(m, c.n)
	u.Add(u, t)
	u.Rsh(u, c.rbits)
	extra := u.Cmp(c.n) >= 0
	if extra {
		u.Sub(u, c.n)
	}
	return u, extra
}

func (c *refCtx) toMont(x *big.Int) *big.Int {
	v, _ := c.redc(new(big.Int).Mul(new(big.Int).Mod(x, c.n), c.rr))
	return v
}

func (c *refCtx) fromMont(x *big.Int) *big.Int {
	v, _ := c.redc(new(big.Int).Set(x))
	return v
}

func (c *refCtx) mulMont(a, b *big.Int) (*big.Int, bool) {
	return c.redc(new(big.Int).Mul(a, b))
}

// charge is the old loops' metering of one leaky operation.
func (c *refCtx) charge(meter *CycleMeter, trace *[]uint64, cost uint64, extra bool) {
	if extra {
		cost += c.c.costExtra
	}
	meter.Add(cost)
	*trace = append(*trace, cost)
}

func (c *refCtx) modExp(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	var trace []uint64
	bm := c.toMont(base)
	acc := new(big.Int).Set(c.one)
	var extra bool
	for i := exp.BitLen() - 1; i >= 0; i-- {
		acc, extra = c.mulMont(acc, acc)
		c.charge(meter, &trace, c.c.costSquare, extra)
		if exp.Bit(i) == 1 {
			acc, extra = c.mulMont(acc, bm)
			c.charge(meter, &trace, c.c.costMul, extra)
		}
	}
	return c.fromMont(acc), trace
}

func (c *refCtx) modExpConstTime(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	var trace []uint64
	r0 := new(big.Int).Set(c.one)
	r1 := c.toMont(base)
	uniform := c.c.costMul + c.c.costSquare + c.c.costExtra
	for i := exp.BitLen() - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			r1, _ = c.mulMont(r0, r1)
			r0, _ = c.mulMont(r0, r0)
		} else {
			r0, _ = c.mulMont(r0, r1)
			r1, _ = c.mulMont(r1, r1)
		}
		trace = append(trace, uniform)
		meter.Add(uniform)
	}
	return c.fromMont(r0), trace
}

func (c *refCtx) modExpWindow(base, exp *big.Int, meter *CycleMeter) *big.Int {
	var trace []uint64
	var table [1 << windowBits]*big.Int
	table[0] = new(big.Int).Set(c.one)
	table[1] = c.toMont(base)
	var extra bool
	for w := 2; w < len(table); w++ {
		table[w], extra = c.mulMont(table[w-1], table[1])
		c.charge(meter, &trace, c.c.costMul, extra)
	}
	acc := new(big.Int).Set(c.one)
	for wi := (exp.BitLen()+windowBits-1)/windowBits - 1; wi >= 0; wi-- {
		for s := 0; s < windowBits; s++ {
			acc, extra = c.mulMont(acc, acc)
			c.charge(meter, &trace, c.c.costSquare, extra)
		}
		w := 0
		for b := windowBits - 1; b >= 0; b-- {
			w = w<<1 | int(exp.Bit(wi*windowBits+b))
		}
		acc, extra = c.mulMont(acc, table[w])
		c.charge(meter, &trace, c.c.costMul, extra)
	}
	return c.fromMont(acc)
}

// randModulusWords returns a random odd modulus exactly words 32-bit
// words long, with a random bit length inside the top word.
func randModulusWords(rng *rand.Rand, words int) *big.Int {
	bits := 32*(words-1) + 1 + rng.Intn(32)
	if bits < 2 {
		bits = 2
	}
	return randOddModulus(rng, bits)
}

func equalTraces(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLimbKernelMatchesReference is the property behind every
// side-channel experiment: over word counts 2–33, odd ones included, the
// limb kernel reproduces the old math/big REDC exactly — each Montgomery
// product and its extra-reduction flag, each exponentiation's result,
// cycle total and per-operation trace.
func TestLimbKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for words := 2; words <= 33; words++ {
		for trial := 0; trial < 3; trial++ {
			n := randModulusWords(rng, words)
			ref := newRefCtx(t, n)
			c := ref.c
			if c.Words() != words {
				t.Fatalf("modulus of %d bits: %d words, want %d", n.BitLen(), c.Words(), words)
			}
			if got := c.One(); got.Cmp(ref.one) != 0 {
				t.Fatalf("words=%d: One differs", words)
			}
			for k := 0; k < 20; k++ {
				a, b := new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)
				if k == 0 {
					a.Sub(n, big.NewInt(1)) // largest operands
					b.Set(a)
				}
				got, gx := c.MulMont(a, b)
				want, wx := ref.mulMont(a, b)
				if got.Cmp(want) != 0 || gx != wx {
					t.Fatalf("words=%d MulMont(%v,%v): got %v/%v want %v/%v", words, a, b, got, gx, want, wx)
				}
				if c.ToMont(a).Cmp(ref.toMont(a)) != 0 || c.FromMont(a).Cmp(ref.fromMont(a)) != 0 {
					t.Fatalf("words=%d: ToMont/FromMont differ for %v", words, a)
				}
			}

			base := new(big.Int).Rand(rng, n)
			exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(8+rng.Intn(80))))
			exp.SetBit(exp, 0, 1)

			var gm, wm CycleMeter
			got, gtr := c.ModExpWithTrace(base, exp, &gm)
			want, wtr := ref.modExp(base, exp, &wm)
			if got.Cmp(want) != 0 || gm.Cycles() != wm.Cycles() || !equalTraces(gtr, wtr) {
				t.Fatalf("words=%d ModExpWithTrace differs: cycles %d vs %d, trace lens %d vs %d",
					words, gm.Cycles(), wm.Cycles(), len(gtr), len(wtr))
			}
			var lm CycleMeter
			if v := c.ModExp(base, exp, &lm); v.Cmp(want) != 0 || lm.Cycles() != wm.Cycles() {
				t.Fatalf("words=%d ModExp differs from the reference", words)
			}

			gm.Reset()
			wm.Reset()
			got, gtr = c.ModExpConstTimeWithTrace(base, exp, &gm)
			want, wtr = ref.modExpConstTime(base, exp, &wm)
			if got.Cmp(want) != 0 || gm.Cycles() != wm.Cycles() || !equalTraces(gtr, wtr) {
				t.Fatalf("words=%d ModExpConstTimeWithTrace differs", words)
			}
			lm.Reset()
			if v := c.ModExpConstTime(base, exp, &lm); v.Cmp(want) != 0 || lm.Cycles() != wm.Cycles() {
				t.Fatalf("words=%d ModExpConstTime differs from the reference", words)
			}

			gm.Reset()
			wm.Reset()
			if got, want := c.ModExpWindow(base, exp, &gm), ref.modExpWindow(base, exp, &wm); got.Cmp(want) != 0 || gm.Cycles() != wm.Cycles() {
				t.Fatalf("words=%d ModExpWindow differs: cycles %d vs %d", words, gm.Cycles(), wm.Cycles())
			}
		}
	}
}

// TestNewMontCtxInverse checks the Newton-iteration constant.
func TestNewMontCtxInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for i := 0; i < 200; i++ {
		c, err := NewMontCtx(randOddModulus(rng, 3+rng.Intn(600)))
		if err != nil {
			t.Fatal(err)
		}
		// n0 · n0inv ≡ -1 (mod 2^64)
		p := new(big.Int).Mul(new(big.Int).SetUint64(c.n[0]), new(big.Int).SetUint64(c.n0inv))
		p.Add(p, big.NewInt(1))
		if p.Mod(p, two64).Sign() != 0 {
			t.Fatalf("n0inv wrong for n0 = %#x", c.n[0])
		}
	}
}

// TestDriverLoopAllocationFree pins the exponentiation driver's loop at
// zero allocations for every schedule, and for a traced run whose sink
// already has room.
func TestDriverLoopAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := randOddModulus(rng, 512)
	c, _ := NewMontCtx(n)
	r := c.newRegs()
	c.loadResidue(r.table[1], new(big.Int).Rand(rng, n))
	e := new(big.Int).Rand(rng, n)
	var meter CycleMeter
	for _, s := range []schedule{squareMultiply, ladder, fixedWindow} {
		if a := testing.AllocsPerRun(20, func() {
			c.drive(r, e.Bits(), e.BitLen(), s, &meter, nil)
		}); a != 0 {
			t.Errorf("schedule %d: %v allocs per run, want 0", s, a)
		}
	}
	trace := make([]uint64, 0, 2*e.BitLen())
	if a := testing.AllocsPerRun(20, func() {
		trace = trace[:0]
		c.drive(r, e.Bits(), e.BitLen(), squareMultiply, &meter, &trace)
	}); a != 0 {
		t.Errorf("traced square-and-multiply: %v allocs per run, want 0", a)
	}
}

// FuzzMontMul checks the limb kernel against math/big: the product is
// a·b·R^{-1} mod N with R = 2^(32·words), and the extra-reduction flag
// is the reference REDC's.
func FuzzMontMul(f *testing.F) {
	f.Add([]byte{0x65}, []byte{7}, []byte{9})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0xfe}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(make([]byte, 40), []byte{1}, []byte{1})
	f.Fuzz(func(t *testing.T, nb, ab, bb []byte) {
		if len(nb) > 160 {
			nb = nb[:160]
		}
		n := new(big.Int).SetBytes(nb)
		n.SetBit(n, 0, 1)
		if n.BitLen() < 2 {
			return
		}
		ref := newRefCtx(t, n)
		a := new(big.Int).Mod(new(big.Int).SetBytes(ab), n)
		b := new(big.Int).Mod(new(big.Int).SetBytes(bb), n)
		got, gx := ref.c.MulMont(a, b)
		r := new(big.Int).Lsh(big.NewInt(1), ref.rbits)
		want := new(big.Int).Mul(a, b)
		want.Mul(want, new(big.Int).ModInverse(r, n))
		want.Mod(want, n)
		if got.Cmp(want) != 0 {
			t.Fatalf("MulMont(%v, %v) mod %v = %v, want %v", a, b, n, got, want)
		}
		if _, wx := ref.mulMont(a, b); gx != wx {
			t.Fatalf("extra flag %v, reference REDC %v", gx, wx)
		}
	})
}

func BenchmarkMontMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	n := randOddModulus(rng, 512)
	c, _ := NewMontCtx(n)
	r := c.newRegs()
	c.loadResidue(r.acc, new(big.Int).Rand(rng, n))
	c.loadResidue(r.table[1], new(big.Int).Rand(rng, n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.montMul(r.acc, r.acc, r.table[1], r.t)
	}
}
