package main

import (
	"encoding/binary"
	"math"
	"time"
)

// gen derives every input of a run from the workload seed: the
// open-loop arrival schedule, each session's full/resumed coin and every
// payload byte. The program under test only ever sees these generated
// inputs. All draws are pure functions of (seed, stream, index), so a
// session's inputs do not depend on which worker runs it or when.
type gen struct{ seed uint64 }

// Independent streams of the generator.
const (
	streamSchedule uint64 = iota + 1
	streamCoin
	streamPayload
)

// splitmix64 finalizer: a bijective 64-bit mix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g gen) draw(stream, i, j uint64) uint64 {
	return mix(mix(mix(g.seed^stream<<56)^i) ^ j)
}

// resumed is session i's coin: true for a resumed handshake, false for
// a full one, each with probability 1/2.
func (g gen) resumed(i uint64) bool { return g.draw(streamCoin, i, 0)&1 == 1 }

// payload fills dst with the bytes of record r of session i.
func (g gen) payload(dst []byte, i, r uint64) {
	var w [8]byte
	for off := 0; off < len(dst); off += 8 {
		binary.LittleEndian.PutUint64(w[:], g.draw(streamPayload, i, r<<32|uint64(off)))
		copy(dst[off:], w[:])
	}
	// The gateway treats a session's first record that begins with the
	// trace-context magic "MSTC" as a header and does not echo it.
	if len(dst) > 0 && dst[0] == 'M' {
		dst[0] = 'm'
	}
}

// schedule returns the due offsets of a Poisson arrival process at rate
// sessions/s over d.
func (g gen) schedule(rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for j := uint64(0); ; j++ {
		u := float64(g.draw(streamSchedule, 0, j)>>11) / (1 << 53)
		t += -math.Log1p(-u) / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
