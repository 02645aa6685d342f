package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/gateway"
	"repro/internal/wtls"
)

// The gateway runs with msgateway's defaults.
const (
	pkiSeed    = "mobilesec-dev"
	serverName = "gw.local"
	rsaBits    = 512
	suiteAES   = 0x002F // RSA_WITH_AES_128_CBC_SHA, the only suite offered

	// openRate is handshake_mix's offered load in its open-loop phase,
	// about half the closed-loop capacity measured at 2 connections.
	openRate = 600.0 // sessions/s

	hsPayload = 64 // handshake_mix: one 64 B record echoed per session

	bulkRecord = 1024 // bulk_echo: 8 records of 1 KiB per round trip,
	bulkBurst  = 8    // written back to back so the gateway reads them
	bulkRounds = 64   // as one batch; 64 round trips per session

	ioTimeout = 10 * time.Second
)

// bed is one in-process gateway listening on the loopback interface,
// with a client configuration for it and a client session cache primed
// by one full handshake.
type bed struct {
	srv    *gateway.Server
	cache  *wtls.SessionCache // the server's
	addr   string
	client wtls.Config
	primed *wtls.SessionCache
	tr     *tracer      // nil in untraced runs
	on     *atomic.Bool // tracing of the current phase
}

// newBed derives the PKI, starts the gateway and primes the client
// cache. With tr set, the listener can record server spans.
func newBed(tr *tracer) (*bed, error) {
	ca, key, cert, err := gateway.DevPKI(pkiSeed, serverName, rsaBits)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &bed{cache: wtls.NewSessionCache(), tr: tr, on: new(atomic.Bool), primed: wtls.NewSessionCache()}
	var l net.Listener = ln
	if tr != nil {
		l = &tlistener{Listener: ln, t: tr, on: b.on}
	}
	b.srv, err = gateway.Serve(l, gateway.Config{
		WTLS:     &wtls.Config{Certificate: cert, PrivateKey: key, SessionCache: b.cache},
		RandSeed: []byte(pkiSeed + "/gateway-rand"),
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	b.addr = ln.Addr().String()
	b.client = wtls.Config{RootCA: &ca.Key.PublicKey, ServerName: serverName, Suites: []uint16{suiteAES}}
	return b, nil
}

func (b *bed) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.srv.Shutdown(ctx)
}

// session kinds
const (
	kindFull    = "full"
	kindResumed = "resumed"
)

// sessionSpec is what one session does: its kind and its echo shape.
type sessionSpec struct {
	kind   string
	rounds int // echo round trips
	burst  int // records written back to back per round trip
	record int // bytes per record
}

// outcome is the client's view of one session.
type outcome struct {
	dialed   bool // a TCP connection reached the gateway
	hsOK     bool
	err      error
	resumed  bool
	hs       time.Duration
	rtts     []sample // echo round trips
	echoed   int64    // verified payload bytes
	instr    float64
	finished time.Time
}

// client is one connection slot's reusable state.
type client struct {
	b       *bed
	g       gen
	out, in []byte
	rtts    []sample
}

func newClient(b *bed, g gen, spec sessionSpec) *client {
	n := spec.burst * spec.record
	return &client{b: b, g: g, out: make([]byte, n), in: make([]byte, n)}
}

// run performs session i: dial, handshake offering only suite 0x002F,
// echo round trips with every byte compared, close. Round trips after
// stopAt are skipped, so a bulk session ends at the phase deadline.
func (c *client) run(i uint64, spec sessionSpec, stopAt time.Time) (o outcome) {
	var rec *recorder
	if c.b.on.Load() {
		rec = &recorder{t: c.b.tr}
		rec.begin("session")
	}
	rec.begin("dial")
	raw, err := net.DialTimeout("tcp", c.b.addr, ioTimeout)
	rec.end()
	if err != nil {
		o.err = fmt.Errorf("dial: %w", err)
		return o
	}
	o.dialed = true
	// The client closes first, so each session would leave its port in
	// TIME_WAIT for a minute. Tens of thousands of sessions per run fill
	// the ephemeral port range, and every later connect() slows down
	// searching it, this run's and the next run's. Closing with an RST
	// after the close_notify alert leaves no TIME_WAIT behind.
	if err := raw.(*net.TCPConn).SetLinger(0); err != nil {
		raw.Close()
		o.err = fmt.Errorf("linger: %w", err)
		return o
	}
	port := raw.LocalAddr().(*net.TCPAddr).Port
	var conn net.Conn = raw
	if rec != nil {
		conn = &tconn{Conn: raw, rec: rec}
	}
	cfg := c.b.client
	cfg.Rand = prng.NewDRBG(fmt.Appendf(nil, "perfbench/client/%d/%d", c.g.seed, i))
	if spec.kind != kindFull {
		cfg.SessionCache = c.b.primed
	}
	tc := wtls.Client(conn, &cfg)
	defer func() {
		rec.begin("close")
		tc.Close()
		rec.end()
		o.finished = time.Now()
		if rec != nil {
			rec.end()
			kind := spec.kind
			if kind == kindResumed && !o.resumed {
				kind = kindFull // the resume fell back to a full handshake
			}
			c.b.tr.finishClient(rec, kind, port)
		}
	}()
	_ = tc.SetDeadline(time.Now().Add(ioTimeout))

	rec.begin("handshake")
	h0 := time.Now()
	err = tc.Handshake()
	o.hs = time.Since(h0)
	rec.end()
	if err != nil {
		o.err = fmt.Errorf("handshake: %w", err)
		return o
	}
	o.hsOK = true
	st := tc.State()
	if st.Suite == nil || st.Suite.ID != suiteAES {
		o.err = errors.New("negotiated suite is not 0x002F")
		return o
	}
	o.resumed = st.Resumed
	o.instr = tc.Metrics().HandshakeInstr

	c.rtts = c.rtts[:0]
	n := spec.burst * spec.record
	for r := 0; r < spec.rounds; r++ {
		if r > 0 && time.Now().After(stopAt) {
			break
		}
		for k := 0; k < spec.burst; k++ {
			c.g.payload(c.out[k*spec.record:(k+1)*spec.record], i, uint64(r*spec.burst+k))
		}
		_ = tc.SetDeadline(time.Now().Add(ioTimeout))
		rec.begin("echo")
		r0 := time.Now()
		for k := 0; k < spec.burst; k++ {
			rec.begin("write")
			_, err = tc.Write(c.out[k*spec.record : (k+1)*spec.record])
			rec.endBytes(spec.record)
			if err != nil {
				rec.end()
				o.err = fmt.Errorf("write: %w", err)
				return o
			}
		}
		rec.begin("read")
		_, err = io.ReadFull(tc, c.in[:n])
		rec.endBytes(n)
		end := time.Now()
		rec.end()
		if err != nil {
			o.err = fmt.Errorf("read: %w", err)
			return o
		}
		if !bytes.Equal(c.in[:n], c.out[:n]) {
			o.err = errors.New("echo differs from the bytes sent")
			return o
		}
		o.echoed += int64(n)
		c.rtts = append(c.rtts, sample{end, ms(end.Sub(r0))})
	}
	o.rtts = c.rtts
	return o
}

// tally accumulates the outcomes of a phase.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	dialed    int64
	hsOK      int64
	hsFail    int64
	echoed    int64
	resumeTry int
	resumeHit int
	firstErr  error

	hsFull, hsResumed    []float64 // ms
	sessions             []sample  // latency from the due time (open loop) or start
	rtts                 []sample
	start                time.Time // closed loop: when the phase began
	fullInstr, fullCount float64   // modeled handshake instructions of full handshakes
}

// add files session o, which was due (open loop) or started (closed
// loop) at due.
func (t *tally) add(spec sessionSpec, o outcome, due time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if o.dialed {
		t.dialed++
	}
	if o.hsOK {
		t.hsOK++
	} else if o.dialed {
		t.hsFail++
	}
	if o.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = o.err
		}
		return
	}
	if spec.kind != kindFull {
		t.resumeTry++
		if o.resumed {
			t.resumeHit++
		}
	}
	if o.resumed {
		t.hsResumed = append(t.hsResumed, ms(o.hs))
	} else {
		t.hsFull = append(t.hsFull, ms(o.hs))
		t.fullInstr += o.instr
		t.fullCount++
	}
	t.sessions = append(t.sessions, sample{o.finished, ms(o.finished.Sub(due))})
	t.rtts = append(t.rtts, o.rtts...)
	t.echoed += o.echoed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// reconcile checks the gateway's counters for a phase against the
// client's: every dialed connection ends as one finished session, and
// handshakes, handshake failures and echoed bytes agree. Each counter
// that disagrees is one failed operation.
func (t *tally) reconcile(b *bed, before gateway.Stats) {
	var st gateway.Stats
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = b.srv.Stats()
		if st.SessionsDone-before.SessionsDone >= t.dialed || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	check := func(name string, server, client int64) {
		if server != client {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("gateway %s %d, client %d", name, server, client)
			}
		}
	}
	check("sessions_done", st.SessionsDone-before.SessionsDone, t.dialed)
	check("handshakes", st.Handshakes-before.Handshakes, t.hsOK)
	check("handshake_failures", st.HandshakeFailures-before.HandshakeFailures, t.hsFail)
	check("echo_bytes", st.EchoBytes-before.EchoBytes, t.echoed)
}

// specFor is session i's spec in a workload.
type specFunc func(i uint64) sessionSpec

func mixSpec(g gen) specFunc {
	return func(i uint64) sessionSpec {
		k := kindFull
		if g.resumed(i) {
			k = kindResumed
		}
		return sessionSpec{kind: k, rounds: 1, burst: 1, record: hsPayload}
	}
}

func bulkSpec(uint64) sessionSpec {
	return sessionSpec{kind: kindResumed, rounds: bulkRounds, burst: bulkBurst, record: bulkRecord}
}

// closedLoop runs sessions on conns connections for d, or until limit
// sessions have started when limit > 0: each connection starts its next
// session as soon as the previous one ends. Session indices start at
// base. It returns the tally and the elapsed time, which runs until the
// last session has ended.
func closedLoop(b *bed, g gen, spec specFunc, conns int, base uint64, d time.Duration, limit uint64) (*tally, time.Duration) {
	t := &tally{}
	before := b.srv.Stats()
	start := time.Now()
	t.start = start
	stopAt := start.Add(d)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *client
			for time.Now().Before(stopAt) {
				k := next.Add(1) - 1
				if limit > 0 && k >= limit {
					return
				}
				i := base + k
				s := spec(i)
				if c == nil {
					c = newClient(b, g, s)
				}
				t0 := time.Now()
				t.add(s, c.run(i, s, stopAt), t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	t.reconcile(b, before)
	return t, elapsed
}

// openLoop offers sessions on a seeded Poisson schedule at rate for d,
// served by at most conns connections. Each session's latency runs from
// its due time, so time spent queued behind busy connections counts.
// It also returns how late the generator dispatched each session, in ms.
func openLoop(b *bed, g gen, spec specFunc, conns int, base uint64, rate float64, d time.Duration) (*tally, []float64) {
	sched := g.schedule(rate, d)
	t := &tally{}
	before := b.srv.Stats()
	type job struct {
		i   uint64
		due time.Time
	}
	jobs := make(chan job, len(sched)) // the backlog may hold the whole schedule
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *client
			for j := range jobs {
				s := spec(j.i)
				if c == nil {
					c = newClient(b, g, s)
				}
				t.add(s, c.run(j.i, s, j.due.Add(time.Hour)), j.due)
			}
		}()
	}
	late := make([]float64, 0, len(sched))
	start := time.Now()
	for k, off := range sched {
		due := start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, ms(time.Since(due)))
		jobs <- job{i: base + uint64(k), due: due}
	}
	close(jobs)
	wg.Wait()
	t.reconcile(b, before)
	return t, late
}

// warmUp runs a fixed amount of the workload's traffic, so the
// first-repetition slowdown is paid before timing and counted in set-up:
// 200 sessions, each with at most 8 echo round trips.
func warmUp(b *bed, g gen, spec specFunc, conns int) error {
	short := func(i uint64) sessionSpec {
		s := spec(i)
		s.rounds = min(s.rounds, 8)
		return s
	}
	limit := uint64(200)
	if spec(0).rounds > 1 {
		limit = 4
	}
	t, _ := closedLoop(b, g, short, conns, 1<<40, time.Minute, limit)
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d sessions failed: %v", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// prime fills the client session cache with one full handshake.
func (b *bed) prime(g gen) error {
	spec := sessionSpec{kind: kindResumed, rounds: 1, burst: 1, record: hsPayload}
	t := &tally{}
	before := b.srv.Stats()
	t0 := time.Now()
	o := newClient(b, g, spec).run(1<<41, spec, t0.Add(time.Hour))
	t.add(spec, o, t0)
	t.reconcile(b, before)
	if t.failed > 0 {
		return fmt.Errorf("priming the client session cache: %v", t.firstErr)
	}
	if o.resumed || b.primed.Size() != 1 {
		return errors.New("priming the client session cache: no full handshake cached")
	}
	return nil
}

// setUp builds a bed reps times, timing each build (PKI derivation,
// gateway start, client cache priming and warm-up). It keeps the last
// bed and returns the median set-up time in seconds.
func setUp(g gen, spec specFunc, conns, reps int, traced bool) (*bed, float64, error) {
	var times []float64
	var b *bed
	for r := 0; r < reps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		var err error
		if b, err = newBed(tr); err != nil {
			return nil, 0, err
		}
		if err := b.prime(g); err != nil {
			b.close()
			return nil, 0, err
		}
		if err := warmUp(b, g, spec, conns); err != nil {
			b.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, median(times), nil
}
