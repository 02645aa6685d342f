// Package mp provides the multi-precision modular arithmetic used by the
// public-key algorithms (RSA, Diffie-Hellman): Montgomery multiplication,
// leaky and constant-time modular exponentiation, and a simulated cycle
// meter.
//
// The paper's tamper-resistance section (3.4) singles out the timing
// attack on modular exponentiation [47] as the canonical side-channel.
// Real timing attacks exploit the data-dependent "extra reduction" at the
// end of a Montgomery multiplication; this package implements genuine
// Montgomery multiplication (word-serial CIOS over 64-bit limbs) and
// *meters* each operation in simulated cycles of a 32-bit embedded CPU,
// so the attack in internal/attack/timing operates on exactly the signal
// the literature describes — deterministically and without wall-clock
// noise.
//
// The Montgomery radix is R = 2^(32·words), where words is the modulus
// length in simulated 32-bit CPU words, whatever the host limb size. A
// REDC result (t + m·N)/R is unique for a given R, so every product,
// every extra-reduction flag and every cycle charge is the one a 32-bit
// implementation would see. With an odd word count the last reduction
// step is a half-limb (32-bit) step that keeps R exact.
package mp

import (
	"errors"
	"math/big"
	"math/bits"
	"sync"
)

// WordBits is the simulated embedded-CPU word size. The paper's subject
// processors (ARM7/9, SA-1100, embedded MIPS) are 32-bit machines.
const WordBits = 32

// CycleMeter accumulates simulated execution cycles.
type CycleMeter struct {
	cycles uint64
}

// Add accumulates n cycles.
func (m *CycleMeter) Add(n uint64) {
	if m != nil {
		m.cycles += n
	}
}

// Cycles returns the accumulated cycle count.
func (m *CycleMeter) Cycles() uint64 {
	if m == nil {
		return 0
	}
	return m.cycles
}

// Reset zeroes the meter.
func (m *CycleMeter) Reset() {
	if m != nil {
		m.cycles = 0
	}
}

// ErrEvenModulus reports a modulus unusable for Montgomery arithmetic.
var ErrEvenModulus = errors.New("mp: modulus must be odd and > 1")

// MontCtx holds precomputed Montgomery parameters for an odd modulus N.
// It is safe for concurrent use: each operation borrows its working
// registers from a per-context pool.
type MontCtx struct {
	N     *big.Int
	words int // modulus length in simulated CPU words; R = 2^(32·words)

	limbs int      // 64-bit limbs per residue, ceil(words/2)
	n     []uint64 // N, little-endian limbs
	n0inv uint64   // -N^{-1} mod 2^64
	rr    []uint64 // R^2 mod N, converts into Montgomery form
	one   []uint64 // R mod N, the Montgomery representation of 1
	unit  []uint64 // the plain integer 1, converts out of Montgomery form

	scratch sync.Pool // *regs

	// Per-operation cycle costs, derived from the word count. A k-word
	// operand costs ~k^2 word multiplies for a multiplication, squares
	// are ~25% cheaper, and the extra reduction is a k-word subtraction.
	costMul, costSquare, costExtra uint64
}

// NewMontCtx prepares Montgomery arithmetic modulo n.
func NewMontCtx(n *big.Int) (*MontCtx, error) {
	if n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 2 {
		return nil, ErrEvenModulus
	}
	words := (n.BitLen() + WordBits - 1) / WordBits
	limbs := (words + 1) / 2
	c := &MontCtx{
		N:     new(big.Int).Set(n),
		words: words,
		limbs: limbs,
	}
	c.n = c.limbsOf(n)
	// Newton iteration for N^{-1} mod 2^64: an odd n0 is its own inverse
	// mod 8, and each step doubles the number of correct low bits.
	n0 := c.n[0]
	inv := n0
	for i := 0; i < 5; i++ {
		inv *= 2 - n0*inv
	}
	c.n0inv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(words*WordBits))
	c.one = c.limbsOf(new(big.Int).Mod(r, n))
	c.rr = c.limbsOf(new(big.Int).Mod(r.Mul(r, r), n))
	c.unit = make([]uint64, limbs)
	c.unit[0] = 1
	c.scratch.New = func() any { return c.newRegs() }
	w := uint64(words)
	c.costMul = 4*w*w + 6*w
	c.costSquare = 3*w*w + 6*w
	c.costExtra = 2 * w
	return c, nil
}

// Words returns the modulus length in simulated CPU words.
func (c *MontCtx) Words() int { return c.words }

// CostExtraReduction returns the simulated cycle cost of the final
// conditional subtraction — the quantity a timing attacker estimates.
func (c *MontCtx) CostExtraReduction() uint64 { return c.costExtra }

// ExpCycleCosts reports the simulated (square, multiply, extra) costs so
// the cost model in internal/cost and the attack threshold can share them.
func (c *MontCtx) ExpCycleCosts() (square, mul, extra uint64) {
	return c.costSquare, c.costMul, c.costExtra
}

// limbsOf converts 0 <= x < 2^(64·limbs) into a fresh limb slice.
func (c *MontCtx) limbsOf(x *big.Int) []uint64 {
	z := make([]uint64, c.limbs)
	load(z, x)
	return z
}

// load writes 0 <= x < 2^(64·len(z)) into z, zero-filling the top.
func load(z []uint64, x *big.Int) {
	clear(z)
	for i, w := range x.Bits() {
		if bits.UintSize == 32 {
			z[i/2] |= uint64(w) << (32 * uint(i%2))
		} else {
			z[i] = uint64(w)
		}
	}
}

// toBig returns the limbs of x as a new big.Int.
func toBig(x []uint64) *big.Int {
	ws := make([]big.Word, len(x)*64/bits.UintSize)
	for i := range ws {
		if bits.UintSize == 32 {
			ws[i] = big.Word(x[i/2] >> (32 * uint(i%2)))
		} else {
			ws[i] = big.Word(x[i])
		}
	}
	return new(big.Int).SetBits(ws)
}

// montMul sets z = x·y·R^{-1} mod N for x, y < N and reports whether the
// final conditional subtraction ("extra reduction") fired. It is CIOS
// Montgomery multiplication: each 64-bit digit of x is multiplied in and
// reduced away in one pass over the limbs, and an odd word count ends on
// a 32-bit digit so that the radix stays 2^(32·words). t is scratch of
// limbs+2 words; z may alias x or y.
func (c *MontCtx) montMul(z, x, y, t []uint64) bool {
	n := c.n
	L := len(n)
	x, y, t = x[:L], y[:L], t[:L+2]
	n0inv := c.n0inv
	clear(t)
	full := c.words / 2 // whole 64-bit reduction steps
	for i := 0; i < full; i++ {
		// t = (t + d·y + m·N) / 2^64, with m chosen so the low limb
		// vanishes. The two carry chains run side by side.
		d := x[i]
		hi, lo := bits.Mul64(d, y[0])
		lo, cc := bits.Add64(lo, t[0], 0)
		ca := hi + cc
		m := lo * n0inv
		hi, lo2 := bits.Mul64(m, n[0])
		_, cc = bits.Add64(lo, lo2, 0)
		cb := hi + cc
		for j := 1; j < L; j++ {
			hi, lo := bits.Mul64(d, y[j])
			lo, cc := bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, ca, 0)
			ca = hi + cc
			hi, lo2 := bits.Mul64(m, n[j])
			lo, cc = bits.Add64(lo, lo2, 0)
			hi += cc
			lo, cc = bits.Add64(lo, cb, 0)
			cb = hi + cc
			t[j-1] = lo
		}
		s, c1 := bits.Add64(t[L], ca, 0)
		s, c2 := bits.Add64(s, cb, 0)
		t[L-1] = s
		t[L] = c1 + c2
	}
	if c.words%2 == 1 {
		// Half step: the top digit of x is below 2^32, and the reduction
		// divides by 2^32 only.
		mulAdd(t, x[L-1], y)
		mulAdd(t, (t[0]*n0inv)&0xffffffff, n)
		for j := 0; j <= L; j++ {
			t[j] = t[j]>>32 | t[j+1]<<32
		}
		t[L+1] = 0
	}
	// t < 2N: subtract N once if t >= N.
	extra := t[L] != 0 || !less(t[:L], n)
	if extra {
		var b uint64
		for j := 0; j < L; j++ {
			t[j], b = bits.Sub64(t[j], n[j], b)
		}
	}
	copy(z, t[:L])
	return extra
}

// mulAdd sets t += d·y, where t has two more limbs than y.
func mulAdd(t []uint64, d uint64, y []uint64) {
	L := len(y)
	var carry uint64
	for j := 0; j < L; j++ {
		hi, lo := bits.Mul64(d, y[j])
		lo, cc := bits.Add64(lo, t[j], 0)
		hi += cc
		lo, cc = bits.Add64(lo, carry, 0)
		t[j] = lo
		carry = hi + cc
	}
	var cc uint64
	t[L], cc = bits.Add64(t[L], carry, 0)
	t[L+1] += cc
}

// less reports x < y for equal-length little-endian limbs.
func less(x, y []uint64) bool {
	for j := len(x) - 1; j >= 0; j-- {
		if x[j] != y[j] {
			return x[j] < y[j]
		}
	}
	return false
}

// regs is one operation's working storage: the product accumulator and
// the exponentiation registers, all carved from one allocation.
type regs struct {
	t     []uint64     // limbs+2
	acc   []uint64     // accumulator / ladder r0
	table [16][]uint64 // window table; table[1] holds the Montgomery base
}

func (c *MontCtx) newRegs() *regs {
	L := c.limbs
	buf := make([]uint64, L+2+17*L)
	r := &regs{t: buf[:L+2]}
	buf = buf[L+2:]
	next := func() []uint64 {
		s := buf[:L:L]
		buf = buf[L:]
		return s
	}
	r.acc = next()
	for i := range r.table {
		r.table[i] = next()
	}
	return r
}

// loadResidue writes x mod N into z.
func (c *MontCtx) loadResidue(z []uint64, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(c.N) >= 0 {
		x = new(big.Int).Mod(x, c.N)
	}
	load(z, x)
}

// ToMont converts x (reduced mod N) into Montgomery form.
func (c *MontCtx) ToMont(x *big.Int) *big.Int {
	v, _ := c.mulOnce(x, nil, c.rr)
	return v
}

// FromMont converts a Montgomery-form value back to the ordinary residue.
func (c *MontCtx) FromMont(x *big.Int) *big.Int {
	v, _ := c.mulOnce(x, nil, c.unit)
	return v
}

// MulMont multiplies two Montgomery-form values in [0, N), reporting the
// extra-reduction flag. This is the primitive the timing attack
// emulates; it runs the same kernel as the exponentiations.
func (c *MontCtx) MulMont(a, b *big.Int) (*big.Int, bool) {
	return c.mulOnce(a, b, nil)
}

// mulOnce is one Montgomery multiplication of a mod N by b mod N, or by
// the limbs y when b is nil.
func (c *MontCtx) mulOnce(a, b *big.Int, y []uint64) (*big.Int, bool) {
	r := c.scratch.Get().(*regs)
	defer c.scratch.Put(r)
	x := r.acc
	c.loadResidue(x, a)
	if b != nil {
		y = r.table[1]
		c.loadResidue(y, b)
	}
	extra := c.montMul(x, x, y, r.t)
	return toBig(x), extra
}

// One returns the Montgomery representation of 1.
func (c *MontCtx) One() *big.Int { return toBig(c.one) }

// schedule names the operation sequence an exponentiation runs.
type schedule uint8

const (
	// squareMultiply is left-to-right square-and-multiply: a square per
	// exponent bit, a multiply per set bit, each charged its cost plus
	// the extra reduction when it fired. Its timing leaks the exponent.
	squareMultiply schedule = iota
	// ladder is the Montgomery ladder: one multiply and one square per
	// bit, charged one uniform amount that includes an always-taken
	// extra reduction.
	ladder
	// fixedWindow is 4-bit fixed-window exponentiation: fourteen table
	// multiplies, then four squares and one table multiply per window.
	fixedWindow
)

// windowBits is the fixed window width of the fixedWindow schedule.
const windowBits = 4

// exp computes base^e mod N under schedule s. Every operation is charged
// to meter (nil allowed) and, when trace is non-nil, appended to it as
// one sample: one per square or multiply, or one per ladder step.
func (c *MontCtx) exp(base, e *big.Int, s schedule, meter *CycleMeter, trace *[]uint64) *big.Int {
	if e.Sign() == 0 {
		return new(big.Int).Mod(big.NewInt(1), c.N)
	}
	r := c.scratch.Get().(*regs)
	defer c.scratch.Put(r)
	c.loadResidue(r.table[1], base)
	c.montMul(r.table[1], r.table[1], c.rr, r.t)
	if trace != nil {
		n := e.BitLen()
		if s == squareMultiply {
			for _, w := range e.Bits() {
				n += bits.OnesCount(uint(w))
			}
		}
		*trace = make([]uint64, 0, n)
	}
	c.drive(r, e.Bits(), e.BitLen(), s, meter, trace)
	c.montMul(r.acc, r.acc, c.unit, r.t)
	return toBig(r.acc)
}

// bit returns bit i of the little-endian word slice e, 0 past its end.
func bit(e []big.Word, i int) uint {
	if w := i / bits.UintSize; w < len(e) {
		return uint(e[w]>>(uint(i)%bits.UintSize)) & 1
	}
	return 0
}

// drive runs the schedule over the registers: r.table[1] holds the base
// in Montgomery form, and the result is left in r.acc, still in
// Montgomery form. It allocates nothing unless trace outgrows its
// capacity.
func (c *MontCtx) drive(r *regs, e []big.Word, nbits int, s schedule, meter *CycleMeter, trace *[]uint64) {
	// op multiplies x by y into z and charges cost, plus the extra
	// reduction when it fired.
	op := func(z, x, y []uint64, cost uint64) {
		if c.montMul(z, x, y, r.t) {
			cost += c.costExtra
		}
		meter.Add(cost)
		if trace != nil {
			*trace = append(*trace, cost)
		}
	}
	acc, b := r.acc, r.table[1]
	copy(acc, c.one)
	switch s {
	case squareMultiply:
		for i := nbits - 1; i >= 0; i-- {
			op(acc, acc, acc, c.costSquare)
			if bit(e, i) == 1 {
				op(acc, acc, b, c.costMul)
			}
		}
	case ladder:
		// r0 = acc, r1 = b. Flags are discarded: the uniform charge
		// already includes the extra reduction.
		uniform := c.costMul + c.costSquare + c.costExtra
		for i := nbits - 1; i >= 0; i-- {
			if bit(e, i) == 0 {
				c.montMul(b, acc, b, r.t)
				c.montMul(acc, acc, acc, r.t)
			} else {
				c.montMul(acc, acc, b, r.t)
				c.montMul(b, b, b, r.t)
			}
			meter.Add(uniform)
			if trace != nil {
				*trace = append(*trace, uniform)
			}
		}
	case fixedWindow:
		// Every window performs four squares and one table multiply
		// (by the Montgomery 1 for a zero window), so the sequence
		// depends on the exponent's length only.
		t := &r.table
		copy(t[0], c.one)
		for w := 2; w < len(t); w++ {
			op(t[w], t[w-1], b, c.costMul)
		}
		for wi := (nbits+windowBits-1)/windowBits - 1; wi >= 0; wi-- {
			for k := 0; k < windowBits; k++ {
				op(acc, acc, acc, c.costSquare)
			}
			w := uint(0)
			for k := windowBits - 1; k >= 0; k-- {
				w = w<<1 | bit(e, wi*windowBits+k)
			}
			op(acc, acc, t[w], c.costMul)
		}
	}
}

// ModExp computes base^exp mod N with a left-to-right square-and-multiply
// over Montgomery arithmetic. Its simulated timing (accumulated into
// meter, which may be nil) is data-dependent in exactly the way the
// Kocher/Dhem timing attacks exploit: per-operation cost differs between
// squares and multiplies, and each operation may or may not incur the
// extra-reduction subtraction.
func (c *MontCtx) ModExp(base, exp *big.Int, meter *CycleMeter) *big.Int {
	return c.exp(base, exp, squareMultiply, meter, nil)
}

// ModExpWithTrace is ModExp with a per-operation duration trace — the
// signal a simple power analysis (SPA) probe sees: one amplitude sample
// per modular operation. Squares and multiplies have different durations,
// so the operation sequence (and with it the exponent) is readable
// straight off the trace; internal/attack/spa does exactly that.
func (c *MontCtx) ModExpWithTrace(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	var trace []uint64
	v := c.exp(base, exp, squareMultiply, meter, &trace)
	return v, trace
}

// ModExpConstTime computes base^exp mod N with a Montgomery ladder whose
// simulated timing is independent of both the exponent bits and the data:
// every iteration performs one multiply and one square, and the extra
// reduction is charged unconditionally (modelling an implementation that
// always executes the subtraction and discards it when unneeded). This is
// the countermeasure of Section 3.4 in executable form.
func (c *MontCtx) ModExpConstTime(base, exp *big.Int, meter *CycleMeter) *big.Int {
	return c.exp(base, exp, ladder, meter, nil)
}

// ModExpConstTimeWithTrace is the Montgomery-ladder counterpart: every
// iteration emits one uniform sample, so the trace is flat and carries no
// key information.
func (c *MontCtx) ModExpConstTimeWithTrace(base, exp *big.Int, meter *CycleMeter) (*big.Int, []uint64) {
	var trace []uint64
	v := c.exp(base, exp, ladder, meter, &trace)
	return v, trace
}

// ModExpWindow computes base^exp mod N with a 4-bit fixed-window
// exponentiation over Montgomery arithmetic. Every window performs exactly
// four squares and one table multiply (multiplying by the Montgomery 1 for
// a zero window), so the square/multiply sequence depends only on the
// exponent bit-length, not on its bits. It trades sixteen table entries
// for roughly one multiply per four bits saved against square-and-multiply
// on dense exponents; the RSA private path and Diffie-Hellman use it.
// ModExp remains the deliberately leaky variant the side-channel attacks
// consume — its operation sequence must not change.
func (c *MontCtx) ModExpWindow(base, exp *big.Int, meter *CycleMeter) *big.Int {
	return c.exp(base, exp, fixedWindow, meter, nil)
}
