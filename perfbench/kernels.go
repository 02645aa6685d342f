package main

import (
	"errors"
	"hash"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/hmac"
	"repro/internal/crypto/modes"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/crypto/sha1"
	"repro/internal/gateway"
)

// kernelResult is one timed public crypto call.
type kernelResult struct {
	us, allocs float64 // per call
}

// timeKernel runs f in five batches of about 40 ms after a short warm-up
// and returns the median batch's time and allocations per call.
func timeKernel(f func() error) (kernelResult, error) {
	for i := 0; i < 8; i++ {
		if err := f(); err != nil {
			return kernelResult{}, err
		}
	}
	var us, allocs []float64
	for batch := 0; batch < 5; batch++ {
		g0 := readGo()
		t0 := time.Now()
		n := 0
		for time.Since(t0) < 40*time.Millisecond {
			if err := f(); err != nil {
				return kernelResult{}, err
			}
			n++
		}
		el := time.Since(t0)
		g1 := readGo()
		us = append(us, float64(el)/1e3/float64(n))
		allocs = append(allocs, (g1.allocs-g0.allocs)/float64(n))
	}
	return kernelResult{median(us), median(allocs)}, nil
}

// kernels times the crypto calls a session makes, with session-shaped
// inputs: the gateway's DevPKI server key under the default
// (nil) RSAOptions for the key exchange decrypt, the CA key for the
// certificate signature check, and 1 KiB buffers for AES-128-CBC and
// HMAC-SHA1.
func kernels() (map[string]kernelResult, error) {
	ca, key, _, err := gateway.DevPKI(pkiSeed, serverName, rsaBits)
	if err != nil {
		return nil, err
	}
	rng := prng.NewDRBG([]byte("perfbench/kernels"))
	premaster := rng.Bytes(48)
	ct, err := rsa.EncryptPKCS1(rng, &key.PublicKey, premaster)
	if err != nil {
		return nil, err
	}
	digest := sha1.Sum([]byte("perfbench certificate"))
	sig, err := rsa.SignPKCS1(ca.Key, "sha1", digest[:], nil)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(rng.Bytes(16))
	if err != nil {
		return nil, err
	}
	cbc := modes.NewCBCCrypter(block)
	iv := rng.Bytes(16)
	src := rng.Bytes(1024)
	dst := make([]byte, 1024)
	mac := hmac.New(func() hash.Hash { return sha1.New() }, rng.Bytes(20))
	var sum []byte

	out := make(map[string]kernelResult)
	for _, k := range []struct {
		name string
		f    func() error
	}{
		{"rsa.decrypt", func() error {
			pm, err := rsa.DecryptPKCS1(key, ct, nil)
			if err == nil && string(pm) != string(premaster) {
				err = errors.New("rsa: decrypt returned the wrong premaster")
			}
			return err
		}},
		{"rsa.verify", func() error { return rsa.VerifyPKCS1(&ca.Key.PublicKey, "sha1", digest[:], sig) }},
		{"aes.cbc_encrypt", func() error { return cbc.EncryptInto(iv, src, dst) }},
		{"aes.cbc_decrypt", func() error { return cbc.DecryptInto(iv, src, dst) }},
		{"sha1.hmac", func() error {
			mac.Reset()
			mac.Write(src)
			sum = mac.Sum(sum[:0])
			return nil
		}},
	} {
		r, err := timeKernel(k.f)
		if err != nil {
			return nil, err
		}
		out[k.name] = r
	}
	return out, nil
}
