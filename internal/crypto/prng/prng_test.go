package prng

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func TestDRBGDeterministic(t *testing.T) {
	a := NewDRBG([]byte("seed"))
	b := NewDRBG([]byte("seed"))
	if !bytes.Equal(a.Bytes(64), b.Bytes(64)) {
		t.Fatal("same seed must give same stream")
	}
}

func TestDRBGSeedSeparation(t *testing.T) {
	a := NewDRBG([]byte("seed-1"))
	b := NewDRBG([]byte("seed-2"))
	if bytes.Equal(a.Bytes(64), b.Bytes(64)) {
		t.Fatal("different seeds must give different streams")
	}
}

func TestDRBGReseedChangesStream(t *testing.T) {
	a := NewDRBG([]byte("seed"))
	b := NewDRBG([]byte("seed"))
	a.Bytes(16)
	b.Bytes(16)
	b.Reseed([]byte("fresh entropy"))
	if bytes.Equal(a.Bytes(32), b.Bytes(32)) {
		t.Fatal("reseed must change subsequent output")
	}
	if b.Reseeds() != 1 {
		t.Fatalf("Reseeds = %d, want 1", b.Reseeds())
	}
}

func TestDRBGStreamContinuity(t *testing.T) {
	a := NewDRBG([]byte("s"))
	b := NewDRBG([]byte("s"))
	whole := a.Bytes(100)
	var parts []byte
	for len(parts) < 100 {
		n := 7
		if len(parts)+n > 100 {
			n = 100 - len(parts)
		}
		parts = append(parts, b.Bytes(n)...)
	}
	// Reads of different granularity need not match a single big read in
	// HMAC-DRBG (the update step runs per-Read); what must hold is that
	// equal call sequences match, and neither stream repeats.
	if bytes.Equal(whole[:50], whole[50:]) {
		t.Fatal("DRBG output repeats")
	}
	_ = parts
}

func TestIntnUniformBounds(t *testing.T) {
	d := NewDRBG([]byte("intn"))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := d.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d wildly non-uniform: %d/10000", i, c)
		}
	}
}

func TestIntnPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewDRBG(nil).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	d := NewDRBG([]byte("f"))
	sum := 0.0
	for i := 0; i < 5000; i++ {
		v := d.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 5000
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	d := NewDRBG([]byte("n"))
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := d.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestByteFrequency(t *testing.T) {
	d := NewDRBG([]byte("freq"))
	buf := d.Bytes(1 << 16)
	var counts [256]int
	for _, b := range buf {
		counts[b]++
	}
	expect := len(buf) / 256
	for v, c := range counts {
		if c < expect/2 || c > expect*2 {
			t.Fatalf("byte %#x frequency %d far from expected %d", v, c, expect)
		}
	}
}

func TestTRNGBudget(t *testing.T) {
	tr := NewTRNG([]byte("hw"), 16)
	buf := make([]byte, 16)
	if _, err := tr.Read(buf); err != ErrEntropyExhausted {
		t.Fatalf("expected exhaustion before Harvest, got %v", err)
	}
	tr.Harvest()
	if _, err := tr.Read(buf); err != nil {
		t.Fatalf("Read after Harvest: %v", err)
	}
	if tr.DeliveredBytes() != 16 {
		t.Fatalf("DeliveredBytes = %d, want 16", tr.DeliveredBytes())
	}
	if _, err := tr.Read(buf); err != ErrEntropyExhausted {
		t.Fatal("budget should be exhausted again")
	}
}

func TestTRNGHealthTest(t *testing.T) {
	tr := NewTRNG([]byte("hw"), 64)
	tr.Harvest()
	tr.InjectStuckFault(0xAA)
	if _, err := tr.Read(make([]byte, 8)); err != ErrHealthTest {
		t.Fatalf("stuck fault not detected, err = %v", err)
	}
	tr.ClearFault()
	if _, err := tr.Read(make([]byte, 8)); err != nil {
		t.Fatalf("Read after ClearFault: %v", err)
	}
}

func TestTRNGDefaultRate(t *testing.T) {
	tr := NewTRNG(nil, 0)
	tr.Harvest()
	if _, err := tr.Read(make([]byte, 32)); err != nil {
		t.Fatalf("default harvest rate should cover 32 bytes: %v", err)
	}
}

// TestDRBGKnownAnswer pins the generator's output bytes: every seeded
// experiment in the repository replays from them, so a faster HMAC
// path must leave them unchanged.
func TestDRBGKnownAnswer(t *testing.T) {
	d := NewDRBG([]byte("drbg known answer"))
	a := d.Bytes(45)
	d.Reseed([]byte("more entropy"))
	b := d.Bytes(7)
	c := NewDRBG(nil).Bytes(20)
	for _, kat := range []struct {
		got  []byte
		want string
	}{
		{a, "cfd4cc3764c149ddb4bdf9a85e948f0fed1e0221578788a5556840b18171b0116d0efc4938ebfb031b9c85be2d"},
		{b, "788569389da14a"},
		{c, "e62d30aaaf8e050f8bf1d51d1361840ebb4e3cfc"},
	} {
		if got := hex.EncodeToString(kat.got); got != kat.want {
			t.Errorf("DRBG output %s, want %s", got, kat.want)
		}
	}
}
