package hmac

import (
	"bytes"
	stdhmac "crypto/hmac"
	stdmd5 "crypto/md5"
	stdsha1 "crypto/sha1"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crypto/md5"
	"repro/internal/crypto/sha1"
)

func ourSHA1() hash.Hash { return sha1.New() }
func ourMD5() hash.Hash  { return md5.New() }

// RFC 2202 test cases (a selection covering short, long and block-size
// boundary keys).
func TestRFC2202SHA1(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b617318655057264e28bc0b6fb378c8ef146be00"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
		{bytes.Repeat([]byte{0xaa}, 80), []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"aa4ae5e15272d00e95705637ce8a3b55ed402112"},
	}
	for i, c := range cases {
		h := New(ourSHA1, c.key)
		h.Write(c.data)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestRFC2202MD5(t *testing.T) {
	cases := []struct {
		key, data []byte
		want      string
	}{
		{bytes.Repeat([]byte{0x0b}, 16), []byte("Hi There"),
			"9294727a3638bb1c13f48ef8158bfc9d"},
		{[]byte("Jefe"), []byte("what do ya want for nothing?"),
			"750c783e6ab0b503eaa86e310a5db738"},
	}
	for i, c := range cases {
		h := New(ourMD5, c.key)
		h.Write(c.data)
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		key := make([]byte, rng.Intn(100))
		msg := make([]byte, rng.Intn(300))
		rng.Read(key)
		rng.Read(msg)

		ours := New(ourSHA1, key)
		ref := stdhmac.New(stdsha1.New, key)
		ours.Write(msg)
		ref.Write(msg)
		if !bytes.Equal(ours.Sum(nil), ref.Sum(nil)) {
			t.Fatalf("sha1 key %x: mismatch with stdlib", key)
		}

		oursM := New(ourMD5, key)
		refM := stdhmac.New(stdmd5.New, key)
		oursM.Write(msg)
		refM.Write(msg)
		if !bytes.Equal(oursM.Sum(nil), refM.Sum(nil)) {
			t.Fatalf("md5 key %x: mismatch with stdlib", key)
		}
	}
}

// TestKeySeparation: different keys yield different MACs (property test).
func TestKeySeparation(t *testing.T) {
	f := func(k1, k2 [8]byte, msg []byte) bool {
		if k1 == k2 {
			return true
		}
		h1 := New(ourSHA1, k1[:])
		h2 := New(ourSHA1, k2[:])
		h1.Write(msg)
		h2.Write(msg)
		return !bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMessageSeparation: different messages yield different MACs.
func TestMessageSeparation(t *testing.T) {
	f := func(key [16]byte, m1, m2 []byte) bool {
		if bytes.Equal(m1, m2) {
			return true
		}
		h1 := New(ourSHA1, key[:])
		h2 := New(ourSHA1, key[:])
		h1.Write(m1)
		h2.Write(m2)
		return !bytes.Equal(h1.Sum(nil), h2.Sum(nil))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	h := New(ourSHA1, []byte("key"))
	h.Write([]byte("junk"))
	h.Reset()
	h.Write([]byte("msg"))
	a := h.Sum(nil)
	h2 := New(ourSHA1, []byte("key"))
	h2.Write([]byte("msg"))
	if !bytes.Equal(a, h2.Sum(nil)) {
		t.Fatal("Reset did not restore keyed state")
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2, 3}, []byte{1, 2, 3}) {
		t.Error("Equal rejected identical MACs")
	}
	if Equal([]byte{1, 2, 3}, []byte{1, 2, 4}) {
		t.Error("Equal accepted different MACs")
	}
	if Equal([]byte{1, 2}, []byte{1, 2, 3}) {
		t.Error("Equal accepted different lengths")
	}
}

func BenchmarkHMACSHA1_1K(b *testing.B) {
	h := New(ourSHA1, make([]byte, 20))
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Write(buf)
		h.Sum(nil)
	}
}

// TestReuseAfterResetAndSum: the saved pad states carry an instance
// through any number of Sum and Reset cycles.
func TestReuseAfterResetAndSum(t *testing.T) {
	key := []byte("reuse key")
	for _, hs := range []struct{ ours, std func() hash.Hash }{{ourSHA1, stdsha1.New}, {ourMD5, stdmd5.New}} {
		mac := New(hs.ours, key)
		for i, msg := range []string{"first", "", "third message, longer than nothing"} {
			mac.Reset()
			mac.Write([]byte(msg))
			first := mac.Sum(nil)
			if again := mac.Sum([]byte("prefix")); !bytes.Equal(again[6:], first) {
				t.Fatalf("message %d: second Sum differs", i)
			}
			ref := stdhmac.New(hs.std, key)
			ref.Write([]byte(msg))
			if want := ref.Sum(nil); !bytes.Equal(first, want) {
				t.Fatalf("message %d: got %x, want %x", i, first, want)
			}
		}
	}
}
