package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one session share Trace; Parent 0 marks a
// root. The client half of a session and the gateway's half are two
// roots of one trace: the server root is joined to its client session
// by the client's TCP port.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // full, resumed or regen; set on roots
	Start  int64  `json:"start_ns"`       // since the run's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // wire bytes on io spans, payload bytes on write/read
}

func (s *span) dur() int64 { return s.End - s.Start }

// Server span IDs start here so they never collide with client IDs.
const serverIDBase = 1 << 16

// tracer keeps every finished span in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	pending map[int]*halfSession // joins client and server halves by port
	traces  uint64
}

// halfSession is whichever half of a session finished first.
type halfSession struct {
	trace  uint64
	kind   string
	server []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), pending: make(map[int]*halfSession)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// recorder builds the span list of one half session; it belongs to one
// goroutine.
type recorder struct {
	t     *tracer
	spans []span
	open  []uint32 // stack of open span IDs; io spans hang under the top
	next  uint32
}

// The recorder methods are no-ops on a nil recorder, so untraced
// sessions run the same code.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	r.next++
	var parent uint32
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Name: name, Start: r.t.now()})
	r.open = append(r.open, r.next)
}

func (r *recorder) end() { r.endBytes(0) }

// endBytes closes the innermost open span, recording the payload bytes
// it moved.
func (r *recorder) endBytes(n int) {
	if r == nil {
		return
	}
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].End = r.t.now()
			r.spans[i].Bytes = int64(n)
			return
		}
	}
}

// io records a finished transport call under the innermost open span.
func (r *recorder) io(name string, start int64, n int) {
	if r == nil || len(r.open) == 0 {
		return
	}
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: r.open[len(r.open)-1],
		Name: name, Start: start, End: r.t.now(), Bytes: int64(n)})
}

// finishClient files a client session's spans and joins them with the
// server half that the same TCP port carried.
func (t *tracer) finishClient(r *recorder, kind string, port int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.fileLocked(r, kind)
	if h, ok := t.pending[port]; ok {
		delete(t.pending, port)
		t.fileServer(h.server, tr, kind)
		return
	}
	t.pending[port] = &halfSession{trace: tr, kind: kind}
}

// file stores a finished recorder's spans as a new trace.
func (t *tracer) file(r *recorder, kind string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fileLocked(r, kind)
}

func (t *tracer) fileLocked(r *recorder, kind string) uint64 {
	t.traces++
	for i := range r.spans {
		r.spans[i].Trace = t.traces
	}
	r.spans[0].Kind = kind
	t.spans = append(t.spans, r.spans...)
	return t.traces
}

func (t *tracer) finishServer(spans []span, port int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.pending[port]; ok {
		delete(t.pending, port)
		t.fileServer(spans, h.trace, h.kind)
		return
	}
	t.pending[port] = &halfSession{server: spans}
}

func (t *tracer) fileServer(spans []span, trace uint64, kind string) {
	for i := range spans {
		spans[i].Trace = trace
		spans[i].ID += serverIDBase
		if spans[i].Parent != 0 {
			spans[i].Parent += serverIDBase
		}
	}
	spans[0].Kind = kind
	t.spans = append(t.spans, spans...)
}

// tconn is a client transport that records each Read and Write as an io
// span under the recorder's innermost open span.
type tconn struct {
	net.Conn
	rec *recorder
}

func (c *tconn) Read(p []byte) (int, error) {
	t0 := c.rec.t.now()
	n, err := c.Conn.Read(p)
	c.rec.io("io.read", t0, n)
	return n, err
}

func (c *tconn) Write(p []byte) (int, error) {
	t0 := c.rec.t.now()
	n, err := c.Conn.Write(p)
	c.rec.io("io.write", t0, n)
	return n, err
}

// tlistener hands the gateway, while on is set, server transports that
// record the session's server half: server (accept to close) → queue
// (accept to the first transport Read) and serve (first Read to close)
// → io.
type tlistener struct {
	net.Listener
	t  *tracer
	on *atomic.Bool
}

func (l *tlistener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.on.Load() {
		return c, err
	}
	sc := &sconn{Conn: c, rec: recorder{t: l.t}}
	sc.rec.begin("server")
	sc.rec.begin("queue")
	return sc, nil
}

type sconn struct {
	net.Conn
	mu      sync.Mutex
	rec     recorder
	serving bool
	closed  bool
}

func (c *sconn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if !c.serving && !c.closed {
		c.serving = true
		c.rec.end() // queue
		c.rec.begin("serve")
	}
	t0 := c.rec.t.now()
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	if !c.closed {
		c.rec.io("io.read", t0, n)
	}
	c.mu.Unlock()
	return n, err
}

func (c *sconn) Write(p []byte) (int, error) {
	t0 := c.rec.t.now()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	if !c.closed {
		c.rec.io("io.write", t0, n)
	}
	c.mu.Unlock()
	return n, err
}

func (c *sconn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return err
	}
	c.closed = true
	for len(c.rec.open) > 0 {
		c.rec.end()
	}
	spans := c.rec.spans
	c.mu.Unlock()
	c.rec.t.finishServer(spans, c.RemoteAddr().(*net.TCPAddr).Port)
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	type key struct {
		trace uint64
		id    uint32
	}
	idx := make(map[key]int, len(spans))
	for i := range spans {
		idx[key{spans[i].Trace, spans[i].ID}] = i
	}
	children := make([][][2]int64, len(spans))
	for i := range spans {
		if spans[i].Parent == 0 {
			continue
		}
		if p, ok := idx[key{spans[i].Trace, spans[i].Parent}]; ok {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur() - covered(children[i], spans[i].Start, spans[i].End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerRow is one line of the self-time table: spans of one name in
// sessions of one kind. An io span is also counted in the row
// "<parent name>/<io name>", so per-phase wire counts read off the table.
type layerRow struct {
	Kind, Name string
	Count      int
	TotalNS    int64
	SelfNS     int64
	Bytes      int64
}

// layerTable aggregates spans by session kind and span name, keyed
// "<kind> <name>".
func layerTable(spans []span) map[string]*layerRow {
	self := selfTimes(spans)
	kind := make(map[uint64]string)
	type key struct {
		trace uint64
		id    uint32
	}
	name := make(map[key]string, len(spans))
	for i := range spans {
		if spans[i].Parent == 0 && spans[i].Kind != "" {
			kind[spans[i].Trace] = spans[i].Kind
		}
		name[key{spans[i].Trace, spans[i].ID}] = spans[i].Name
	}
	rows := make(map[string]*layerRow)
	add := func(k, n string, s *span, self int64) {
		r, ok := rows[k+" "+n]
		if !ok {
			r = &layerRow{Kind: k, Name: n}
			rows[k+" "+n] = r
		}
		r.Count++
		r.TotalNS += s.dur()
		r.SelfNS += self
		r.Bytes += s.Bytes
	}
	for i := range spans {
		s := &spans[i]
		k := kind[s.Trace]
		add(k, s.Name, s, self[i])
		if s.Name == "io.read" || s.Name == "io.write" {
			add(k, name[key{s.Trace, s.Parent}]+"/"+s.Name, s, self[i])
		}
	}
	return rows
}

// exportTrace writes the spans as JSON lines and the self-time table as
// text into dir.
func exportTrace(dir, base string, spans []span, rows map[string]*layerRow) (string, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	spanPath := dir + "/" + base + ".spans.jsonl"
	f, err := os.Create(spanPath)
	if err != nil {
		return "", "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", "", err
	}
	if err := f.Close(); err != nil {
		return "", "", err
	}

	tablePath := dir + "/" + base + ".selftime.txt"
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return rows[keys[a]].SelfNS > rows[keys[b]].SelfNS })
	var b []byte
	b = fmt.Appendf(b, "%-8s %-22s %9s %12s %12s %10s %12s\n",
		"kind", "span", "count", "total_ms", "self_ms", "self_us/op", "bytes")
	for _, k := range keys {
		r := rows[k]
		b = fmt.Appendf(b, "%-8s %-22s %9d %12.3f %12.3f %10.2f %12d\n",
			r.Kind, r.Name, r.Count, float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6,
			float64(r.SelfNS)/1e3/float64(r.Count), r.Bytes)
	}
	if err := os.WriteFile(tablePath, b, 0o644); err != nil {
		return "", "", err
	}
	return spanPath, tablePath, nil
}
