package rsa

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"repro/internal/crypto/mp"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
)

// testKey generates a deterministic key once per size and caches it; RSA
// keygen dominates test time otherwise.
var keyCache = map[int]*PrivateKey{}

func testKey(t *testing.T, bits int) *PrivateKey {
	t.Helper()
	if k, ok := keyCache[bits]; ok {
		return k
	}
	k, err := GenerateKey(prng.NewDRBG([]byte("rsa-test-key")), bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	keyCache[bits] = k
	return k
}

func TestGenerateKeyStructure(t *testing.T) {
	k := testKey(t, 512)
	if k.N.BitLen() != 512 {
		t.Fatalf("modulus %d bits, want 512", k.N.BitLen())
	}
	if new(big.Int).Mul(k.P, k.Q).Cmp(k.N) != 0 {
		t.Fatal("N != P*Q")
	}
	// e*d ≡ 1 mod φ(n)
	phi := new(big.Int).Mul(
		new(big.Int).Sub(k.P, big.NewInt(1)),
		new(big.Int).Sub(k.Q, big.NewInt(1)))
	ed := new(big.Int).Mul(big.NewInt(k.E), k.D)
	if new(big.Int).Mod(ed, phi).Int64() != 1 {
		t.Fatal("e*d != 1 mod phi")
	}
	// CRT parameters.
	if new(big.Int).Mod(new(big.Int).Mul(k.Qinv, k.Q), k.P).Int64() != 1 {
		t.Fatal("qinv*q != 1 mod p")
	}
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(prng.NewDRBG(nil), 64); err == nil {
		t.Fatal("accepted 64-bit modulus")
	}
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	k := testKey(t, 512)
	rng := prng.NewDRBG([]byte("enc"))
	for _, msg := range [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("pre-master secret!"),
		bytes.Repeat([]byte{0xff}, 512/8-11),
	} {
		ct, err := EncryptPKCS1(rng, &k.PublicKey, msg)
		if err != nil {
			t.Fatalf("encrypt %q: %v", msg, err)
		}
		pt, err := DecryptPKCS1(k, ct, nil)
		if err != nil {
			t.Fatalf("decrypt %q: %v", msg, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("roundtrip %q -> %q", msg, pt)
		}
	}
}

func TestEncryptTooLong(t *testing.T) {
	k := testKey(t, 512)
	msg := make([]byte, 512/8-10)
	if _, err := EncryptPKCS1(prng.NewDRBG(nil), &k.PublicKey, msg); err != ErrMessageTooLong {
		t.Fatalf("want ErrMessageTooLong, got %v", err)
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	k := testKey(t, 512)
	if _, err := DecryptPKCS1(k, make([]byte, 3), nil); err == nil {
		t.Fatal("accepted short ciphertext")
	}
	big := bytes.Repeat([]byte{0xff}, k.Size())
	if _, err := DecryptPKCS1(k, big, nil); err == nil {
		t.Fatal("accepted ciphertext >= N")
	}
}

func TestSignVerify(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("signed message"))
	for _, opts := range []*Options{
		nil,
		{NoCRT: true},
		{ConstantTime: true},
		{Blinding: true, Rand: prng.NewDRBG([]byte("blind"))},
		{VerifyAfterSign: true},
	} {
		sig, err := SignPKCS1(k, "sha1", digest[:], opts)
		if err != nil {
			t.Fatalf("sign with %+v: %v", opts, err)
		}
		if err := VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig); err != nil {
			t.Fatalf("verify with %+v: %v", opts, err)
		}
	}
}

func TestCRTMatchesNoCRT(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("crt equivalence"))
	s1, err := SignPKCS1(k, "sha1", digest[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SignPKCS1(k, "sha1", digest[:], &Options{NoCRT: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("CRT and non-CRT signatures differ")
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("message"))
	sig, _ := SignPKCS1(k, "sha1", digest[:], nil)

	bad := append([]byte{}, sig...)
	bad[5] ^= 1
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], bad) == nil {
		t.Fatal("accepted corrupted signature")
	}
	other := sha1.Sum([]byte("other message"))
	if VerifyPKCS1(&k.PublicKey, "sha1", other[:], sig) == nil {
		t.Fatal("accepted signature over wrong digest")
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig[:10]) == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestSignMD5(t *testing.T) {
	k := testKey(t, 512)
	digest := make([]byte, 16)
	sig, err := SignPKCS1(k, "md5", digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPKCS1(&k.PublicKey, "md5", digest, sig); err != nil {
		t.Fatal(err)
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", append(digest, 0, 0, 0, 0), sig) == nil {
		t.Fatal("hash algorithm confusion accepted")
	}
}

func TestUnsupportedHash(t *testing.T) {
	k := testKey(t, 512)
	if _, err := SignPKCS1(k, "sha256", make([]byte, 32), nil); err == nil {
		t.Fatal("accepted unsupported hash")
	}
}

// TestFaultInjectionBreaksSignature: with a fault and no countermeasure
// the signature is invalid — the precondition of the BDL attack.
func TestFaultInjectionBreaksSignature(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("faulted"))
	sig, err := SignPKCS1(k, "sha1", digest[:], &Options{Fault: &Fault{FlipBit: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig) == nil {
		t.Fatal("faulty signature verified")
	}
}

// TestVerifyAfterSignCatchesFault: the countermeasure refuses to release a
// faulty signature.
func TestVerifyAfterSignCatchesFault(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("protected"))
	_, err := SignPKCS1(k, "sha1", digest[:], &Options{
		Fault:           &Fault{FlipBit: 3},
		VerifyAfterSign: true,
	})
	if err != ErrFaultDetected {
		t.Fatalf("want ErrFaultDetected, got %v", err)
	}
}

func TestBlindingRequiresRand(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("m"))
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{Blinding: true}); err == nil {
		t.Fatal("blinding without Rand accepted")
	}
}

// TestCRTFasterThanNoCRT: the CRT path should cost roughly 4x less in
// simulated cycles — the reason implementations use it despite the fault
// risk (Section 3.4).
func TestCRTFasterThanNoCRT(t *testing.T) {
	k := testKey(t, 512)
	digest := sha1.Sum([]byte("cycles"))
	var crt, plain mp.CycleMeter
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{Meter: &crt}); err != nil {
		t.Fatal(err)
	}
	if _, err := SignPKCS1(k, "sha1", digest[:], &Options{NoCRT: true, Meter: &plain}); err != nil {
		t.Fatal(err)
	}
	ratio := float64(plain.Cycles()) / float64(crt.Cycles())
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("no-CRT/CRT cycle ratio = %.2f, want ≈4", ratio)
	}
}

func TestPublicKeySize(t *testing.T) {
	k := testKey(t, 512)
	if k.Size() != 64 {
		t.Fatalf("Size = %d, want 64", k.Size())
	}
}

func BenchmarkSignCRT512(b *testing.B) {
	k, _ := GenerateKey(prng.NewDRBG([]byte("bench")), 512)
	digest := sha1.Sum([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SignPKCS1(k, "sha1", digest[:], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecryptAllocs pins the RSA-512 private-key path's allocation
// count, Montgomery contexts included once they are cached on the key.
func TestDecryptAllocs(t *testing.T) {
	k := testKey(t, 512)
	ct, err := EncryptPKCS1(prng.NewDRBG([]byte("allocs")), &k.PublicKey, []byte("premaster secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptPKCS1(k, ct, nil); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := DecryptPKCS1(k, ct, nil); err != nil {
			t.Fatal(err)
		}
	}); a > 48 {
		t.Fatalf("DecryptPKCS1: %v allocs per call, want <= 48", a)
	}
}

// countingReader counts Read calls. Its first read yields 0xab bytes
// with zeros at the given offsets; later reads yield 0x42 bytes.
type countingReader struct {
	reads int
	zeros []int
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	fill := byte(0x42)
	if r.reads == 1 {
		fill = 0xab
	}
	for i := range p {
		p[i] = fill
	}
	if r.reads == 1 {
		for _, i := range r.zeros {
			p[i] = 0
		}
	}
	return len(p), nil
}

// TestEncryptPaddingRedrawsOnlyZeros: the padding string is drawn in
// one read, and only its zero bytes are drawn again, one read each.
func TestEncryptPaddingRedrawsOnlyZeros(t *testing.T) {
	k := testKey(t, 512)
	msg := []byte("sixteen byte msg")
	rng := &countingReader{zeros: []int{0, 7, 30}}
	ct, err := EncryptPKCS1(rng, &k.PublicKey, msg)
	if err != nil {
		t.Fatal(err)
	}
	if rng.reads != 1+len(rng.zeros) {
		t.Fatalf("%d reads, want one for the padding plus %d redraws", rng.reads, len(rng.zeros))
	}
	em, err := k.privateExp(new(big.Int).SetBytes(ct), nil)
	if err != nil {
		t.Fatal(err)
	}
	padded := leftPad(em.Bytes(), k.Size())
	ps := padded[2 : k.Size()-len(msg)-1]
	for i, b := range ps {
		want := byte(0xab)
		if i == 0 || i == 7 || i == 30 {
			want = 0x42
		}
		if b != want {
			t.Fatalf("padding byte %d = %#x, want %#x", i, b, want)
		}
	}
	if got, err := DecryptPKCS1(k, ct, nil); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("roundtrip: %q, %v", got, err)
	}
}

// TestKeyContextsConcurrent: goroutines sharing one key — as a gateway's
// sessions share its server key — build and use its cached Montgomery
// contexts without a race (run under -race).
func TestKeyContextsConcurrent(t *testing.T) {
	k, err := GenerateKey(prng.NewDRBG([]byte("concurrent")), 512)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha1.Sum([]byte("shared key"))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sig, err := SignPKCS1(k, "sha1", digest[:], nil)
			if err == nil {
				err = VerifyPKCS1(&k.PublicKey, "sha1", digest[:], sig)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestContextFollowsReassignedModulus: replacing a key's modulus field
// after use rebuilds its context instead of reusing the stale one.
func TestContextFollowsReassignedModulus(t *testing.T) {
	a, b := testKey(t, 512), testKey(t, 768)
	pub := &PublicKey{N: a.N, E: a.E}
	digest := sha1.Sum([]byte("rekeyed"))
	sigA, _ := SignPKCS1(a, "sha1", digest[:], nil)
	sigB, _ := SignPKCS1(b, "sha1", digest[:], nil)
	if err := VerifyPKCS1(pub, "sha1", digest[:], sigA); err != nil {
		t.Fatal(err)
	}
	pub.N = b.N
	if err := VerifyPKCS1(pub, "sha1", digest[:], sigB); err != nil {
		t.Fatalf("verify after reassigning N: %v", err)
	}
}
