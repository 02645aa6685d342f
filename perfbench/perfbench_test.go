package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// inputs is everything the generator hands the program in a short run.
func inputs(seed uint64) (sched []time.Duration, coins []bool, payload []byte) {
	g := gen{seed: seed}
	sched = g.schedule(openRate, time.Second)
	for i := uint64(0); i < 256; i++ {
		coins = append(coins, g.resumed(i))
	}
	payload = make([]byte, bulkBurst*bulkRecord)
	for k := 0; k < bulkBurst; k++ {
		g.payload(payload[k*bulkRecord:(k+1)*bulkRecord], 7, uint64(k))
	}
	return sched, coins, payload
}

func TestSameSeedSameInputs(t *testing.T) {
	s1, c1, p1 := inputs(42)
	s2, c2, p2 := inputs(42)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(c1, c2) || !bytes.Equal(p1, p2) {
		t.Fatal("the same seed generated different inputs")
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	s1, c1, p1 := inputs(42)
	s2, c2, p2 := inputs(43)
	if reflect.DeepEqual(s1, s2) {
		t.Error("seeds 42 and 43 generated the same schedule")
	}
	if reflect.DeepEqual(c1, c2) {
		t.Error("seeds 42 and 43 generated the same coins")
	}
	if bytes.Equal(p1, p2) {
		t.Error("seeds 42 and 43 generated the same payload")
	}
}

func TestScheduleRateAndCoinBalance(t *testing.T) {
	g := gen{seed: 1}
	n := len(g.schedule(openRate, 10*time.Second))
	if n < 5700 || n > 6300 {
		t.Errorf("%d arrivals in 10 s at %v/s", n, openRate)
	}
	resumed := 0
	for i := uint64(0); i < 10000; i++ {
		if g.resumed(i) {
			resumed++
		}
	}
	if resumed < 4800 || resumed > 5200 {
		t.Errorf("%d of 10000 coins resumed, want about half", resumed)
	}
}

func TestPayloadNeverStartsWithTraceMagic(t *testing.T) {
	g := gen{seed: 3}
	p := make([]byte, hsPayload)
	for i := uint64(0); i < 4096; i++ {
		g.payload(p, i, 0)
		if p[0] == 'M' {
			t.Fatalf("session %d payload starts with 'M'", i)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "echo", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "io.write", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "io.read", Start: 20, End: 50},  // overlaps 2
		{Trace: 1, ID: 4, Parent: 1, Name: "io.read", Start: 90, End: 120}, // past the parent
		{Trace: 2, ID: 1, Name: "echo", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	if want := []int64{100 - 40 - 10, 20, 30, 30, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestSplitLossfigSeparatesSimulatedRows(t *testing.T) {
	fixed, rows := splitLossfig(goldenLossfig)
	if len(rows) != 6 {
		t.Fatalf("%d simulated rows in the golden, want 6", len(rows))
	}
	if !bytes.Contains([]byte(fixed), []byte("669145")) {
		t.Error("the analytic table is not in the fixed text")
	}
	if bytes.Contains([]byte(fixed), []byte("661839")) {
		t.Error("a simulated row leaked into the fixed text")
	}
}

func TestSliceMedians(t *testing.T) {
	start := time.Unix(0, 0)
	var evs []sample
	// Three 1 s slices: 2, 4 and 3 operations; one operation ends after
	// the last whole slice and is ignored.
	for _, e := range []struct {
		at float64
		ms float64
	}{{0.1, 1}, {0.5, 3}, {1.2, 2}, {1.3, 2}, {1.4, 2}, {1.9, 9}, {2.5, 5}, {2.6, 6}, {2.7, 7}, {3.5, 100}} {
		evs = append(evs, sample{start.Add(time.Duration(e.at * float64(time.Second))), e.ms})
	}
	got := slice(evs, start, 3*time.Second, time.Second)
	want := sliced{opsPerSec: 3, p50: 2, p90: 7, slices: 3}
	if got != want {
		t.Fatalf("slice = %+v, want %+v", got, want)
	}
	if got := slice(evs, start, 3*time.Second, 4*time.Second); got.slices != 1 || got.opsPerSec != 3 {
		t.Fatalf("a slice wider than the phase: %+v", got)
	}
}
