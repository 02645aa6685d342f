// Package hmac implements HMAC (RFC 2104) from scratch over any hash in
// this repository.
//
// HMAC-SHA-1 and HMAC-MD5 are the message-authentication algorithms the
// paper's protocols negotiate alongside their bulk ciphers (Section 3.1).
package hmac

import "hash"

// stateHash is a hash whose state can be copied from another instance of
// the same type without allocating; this repository's SHA-1 and MD5
// digests implement it with a struct copy. HMAC keeps the states after
// the key pads and restores them, instead of hashing the pads again, on
// every Reset and Sum.
type stateHash interface {
	hash.Hash
	SetState(src hash.Hash)
}

// New returns an HMAC instance keyed with key over the hash produced by h,
// which must implement SetState(src hash.Hash) as this repository's
// SHA-1 and MD5 digests do. The returned value satisfies hash.Hash.
func New(h func() hash.Hash, key []byte) hash.Hash {
	mk := func() stateHash {
		d, ok := h().(stateHash)
		if !ok {
			panic("hmac: hash does not implement SetState")
		}
		return d
	}
	hm := &hmac{inner: mk(), outer: mk(), innerKeyed: mk(), outerKeyed: mk()}
	bs := hm.inner.BlockSize()
	if len(key) > bs {
		hm.outer.Write(key)
		key = hm.outer.Sum(nil)
		hm.outer.Reset()
	}
	ipad := make([]byte, bs)
	opad := make([]byte, bs)
	copy(ipad, key)
	copy(opad, key)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	hm.innerKeyed.Write(ipad)
	hm.outerKeyed.Write(opad)
	hm.inner.SetState(hm.innerKeyed)
	return hm
}

type hmac struct {
	inner, outer stateHash
	// The states right after absorbing key⊕ipad and key⊕opad.
	innerKeyed, outerKeyed stateHash
}

func (h *hmac) Write(p []byte) (int, error) { return h.inner.Write(p) }

func (h *hmac) Size() int { return h.inner.Size() }

func (h *hmac) BlockSize() int { return h.inner.BlockSize() }

func (h *hmac) Reset() { h.inner.SetState(h.innerKeyed) }

func (h *hmac) Sum(in []byte) []byte {
	mark := len(in)
	in = h.inner.Sum(in)
	h.outer.SetState(h.outerKeyed)
	h.outer.Write(in[mark:])
	return h.outer.Sum(in[:mark])
}

// Equal compares two MACs in constant time, preventing the byte-at-a-time
// timing oracle the paper's tamper-resistance section warns about.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
