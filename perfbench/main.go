// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every output, and prints each metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics and writes its spans and
// a self-time table to .bench_build/trace/<workload>.*, replacing the
// previous traced run's. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload handshake_mix --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	outDir = ".bench_build" // everything the benchmark writes lives here
	reps   = 5              // set-ups per run; setup_s is their median
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and prints each as it is set.
type report struct {
	result
	firstErr error
}

func newReport() *report { return &report{result: result{Metrics: map[string]metric{}}} }

// set records a metric reported in the final JSON object.
func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{v, unit}
	fmt.Printf("%-34s %14.6g %s\n", name, v, unit)
}

// note prints an informational figure that is not part of the JSON.
func note(name, unit string, v float64, n int) {
	fmt.Printf("  %-32s %14.6g %s (n=%d)\n", name, v, unit, n)
}

func (r *report) count(attempted, failed int, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

func main() {
	workload := flag.String("workload", "", "handshake_mix, bulk_echo or paper_regen")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run (1-60)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("-seconds must be 1-60 and -trace 0 or 1"))
	}
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	if _, err := os.Stat(root + "/go.mod"); err != nil {
		fail(fmt.Errorf("run from the repository root"))
	}
	// Every run must end within 180 s; children get a deadline before it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	d := time.Duration(*seconds) * time.Second
	g := gen{seed: *seed}
	conns := runtime.NumCPU()
	rep := newReport()
	fmt.Printf("perfbench: workload %s, seed %d, %v, trace %d, %d connections in flight at most\n",
		*workload, *seed, d, *trace, conns)
	switch *workload {
	case "handshake_mix", "bulk_echo":
		fmt.Println("perfbench: traffic crosses the host's loopback TCP interface (127.0.0.1); client and gateway share this process")
		spec := mixSpec(g)
		if *workload == "bulk_echo" {
			spec = bulkSpec
		}
		if *trace == 0 {
			err = sessionsE2E(rep, *workload, g, spec, conns, d)
		} else {
			err = sessionsTraced(rep, *workload, g, spec, conns, d)
		}
	case "paper_regen":
		err = regenWorkload(ctx, rep, root, d, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fail(err)
	}
	if err := checkDeclared(root+"/BENCHMARK.json", rep.Metrics, *trace == 1); err != nil {
		fail(err)
	}
	rep.Correct = rep.Failed == 0
	if rep.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", rep.firstErr)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// sessionsE2E is the untraced run of a session workload.
func sessionsE2E(rep *report, workload string, g gen, spec specFunc, conns int, d time.Duration) error {
	b, setup, err := setUp(g, spec, conns, reps, false)
	if err != nil {
		return err
	}
	defer b.close()
	t, el := closedLoop(b, g, spec, conns, 0, d, 0)
	countOps(rep, workload, t)
	fmt.Printf("  closed loop: %d sessions in %.3f s\n", t.attempted, el.Seconds())
	if workload == "handshake_mix" {
		sl := slice(t.sessions, t.start, d, time.Second)
		rep.set("ops_per_s", "1/s", sl.opsPerSec)
		rep.set("op_p50_ms", "ms", sl.p50)
		rep.set("op_p90_ms", "ms", sl.p90)
		fmt.Printf("  op_* are medians over %d slices of 1 s; whole-phase figures follow\n", sl.slices)
		note("sessions_per_s", "1/s", float64(t.attempted-t.failed)/el.Seconds(), t.attempted)
		note("session_p50_ms", "ms", pct(msOf(t.sessions), 0.50), len(t.sessions))
		note("session_p99_ms", "ms", pct(msOf(t.sessions), 0.99), len(t.sessions))
		note("hs_full_p50_ms", "ms", pct(t.hsFull, 0.50), len(t.hsFull))
		note("hs_full_p99_ms", "ms", pct(t.hsFull, 0.99), len(t.hsFull))
		note("hs_resumed_p50_ms", "ms", pct(t.hsResumed, 0.50), len(t.hsResumed))
		note("hs_resumed_p99_ms", "ms", pct(t.hsResumed, 0.99), len(t.hsResumed))
	} else {
		sl := slice(t.rtts, t.start, d, 4*time.Second)
		rep.set("ops_per_s", "1/s", sl.opsPerSec)
		rep.set("op_p50_ms", "ms", sl.p50)
		rep.set("op_p90_ms", "ms", sl.p90)
		fmt.Printf("  op_* are medians over %d slices of 4 s; whole-phase figures follow\n", sl.slices)
		note("echo_mb_per_s", "MB/s", float64(t.echoed)/1e6/el.Seconds(), len(t.rtts))
		note("rtt_p50_ms", "ms", pct(msOf(t.rtts), 0.50), len(t.rtts))
		note("rtt_p99_ms", "ms", pct(msOf(t.rtts), 0.99), len(t.rtts))
		note("hs_resumed_p50_ms", "ms", pct(t.hsResumed, 0.50), len(t.hsResumed))
	}
	rep.set("setup_s", "s", setup)
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	fmt.Printf("  server session cache: %d entries\n", b.cache.Size())
	return nil
}

// countOps adds a phase's operations to the report: sessions for
// handshake_mix, echo round trips for bulk_echo. A failed session counts
// as one failed operation.
func countOps(rep *report, workload string, t *tally) {
	n := t.attempted
	if workload == "bulk_echo" {
		n = len(t.rtts) + t.failed
	}
	rep.count(n, t.failed, t.firstErr)
}

// sessionsTraced is the traced run of a session workload: closed-loop
// phases alternate untraced and traced to measure the tracing overhead,
// then (handshake_mix) a traced open-loop phase; the per-layer metrics
// come from the traced phases' spans.
func sessionsTraced(rep *report, workload string, g gen, spec specFunc, conns int, d time.Duration) error {
	b, setup, err := setUp(g, spec, conns, reps, true)
	if err != nil {
		return err
	}
	defer b.close()
	fmt.Printf("  set-up (median of %d): %.4f s\n", reps, setup)

	all := &tally{}
	merge := func(t *tally) {
		countOps(rep, workload, t)
		all.resumeTry += t.resumeTry
		all.resumeHit += t.resumeHit
		all.fullInstr += t.fullInstr
		all.fullCount += t.fullCount
	}
	phase := d / 4
	if workload == "handshake_mix" {
		phase = d / 8
	}
	var ops, secs [2]float64 // [untraced, traced]
	var godelta goDelta
	base := uint64(0)
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		b.on.Store(on)
		g0 := readGo()
		t, el := closedLoop(b, g, spec, conns, base, phase, 0)
		g1 := readGo()
		base += uint64(t.attempted)
		merge(t)
		k := 0
		if on {
			k = 1
		}
		n := float64(t.attempted)
		if workload == "bulk_echo" {
			n = float64(len(t.rtts))
		}
		ops[k] += n
		secs[k] += el.Seconds()
		if !on {
			godelta.add(g0, g1)
		}
	}
	late := []float64{0}
	if workload == "handshake_mix" {
		b.on.Store(true)
		open, l := openLoop(b, g, spec, conns, 1<<32, openRate, d/2)
		merge(open)
		late = l
		fmt.Printf("  open loop, traced: %d sessions offered at %.0f/s; latency from each session's due time\n",
			open.attempted, openRate)
		note("session_p50_ms", "ms", pct(msOf(open.sessions), 0.50), len(open.sessions))
		note("session_p99_ms", "ms", pct(msOf(open.sessions), 0.99), len(open.sessions))
		note("hs_full_p50_ms", "ms", pct(open.hsFull, 0.50), len(open.hsFull))
		note("hs_full_p99_ms", "ms", pct(open.hsFull, 0.99), len(open.hsFull))
		note("hs_resumed_p50_ms", "ms", pct(open.hsResumed, 0.50), len(open.hsResumed))
		note("hs_resumed_p99_ms", "ms", pct(open.hsResumed, 0.99), len(open.hsResumed))
	}
	b.on.Store(false)
	st := b.srv.Stats()

	b.tr.mu.Lock()
	spans := b.tr.spans
	b.tr.mu.Unlock()
	rows := layerTable(spans)
	spanPath, tablePath, err := exportTrace(outDir+"/trace", workload, spans, rows)
	if err != nil {
		return err
	}
	fmt.Printf("  spans: %s (%d spans)\n  self-time table: %s\n", spanPath, len(spans), tablePath)

	row := func(k string) layerRow {
		if r, ok := rows[k]; ok {
			return *r
		}
		return layerRow{}
	}
	per := func(num float64, den int) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	var queue, dial []float64
	for i := range spans {
		switch spans[i].Name {
		case "queue":
			queue = append(queue, float64(spans[i].dur())/1e3)
		case "dial":
			dial = append(dial, float64(spans[i].dur())/1e3)
		}
	}
	full, res := row("full serve"), row("resumed serve")
	busyFull := per(float64(full.SelfNS)/1e3, full.Count)
	rep.set("gateway.queue_wait_us_p50", "us", pct(queue, 0.50))
	rep.set("gateway.queue_wait_us_p99", "us", pct(queue, 0.99))
	rep.set("gateway.busy_us_per_full", "us", busyFull)
	rep.set("gateway.busy_us_per_resumed", "us", per(float64(res.SelfNS)/1e3, res.Count))
	rep.set("gateway.handshake_failures", "count", float64(st.HandshakeFailures))
	rep.set("gateway.peak_active", "count", float64(st.PeakActive))

	hf, hr := row("full handshake"), row("resumed handshake")
	rep.set("wtls.client_hs_self_us_full", "us", per(float64(hf.SelfNS)/1e3, hf.Count))
	rep.set("wtls.client_hs_self_us_resumed", "us", per(float64(hr.SelfNS)/1e3, hr.Count))
	rep.set("wtls.resume_hit_ratio", "ratio", per(float64(all.resumeHit), all.resumeTry))
	rep.set("wtls.server_cache_entries", "count", float64(b.cache.Size()))
	instr := 0.0
	if all.fullCount > 0 {
		instr = all.fullInstr / all.fullCount
	}
	rep.set("wtls.modeled_minstr_per_full_hs", "Minstr", instr/1e6)
	implied := 0.0
	if busyFull > 0 {
		implied = instr / (busyFull * 1e3)
	}
	rep.set("wtls.implied_instr_per_ns", "instr/ns", implied)

	var sealNS, sealB, openNS, openB int64
	var ioWrites, echoes int
	for _, k := range []string{kindFull, kindResumed} {
		w, r := row(k+" write"), row(k+" read")
		sealNS, sealB = sealNS+w.SelfNS, sealB+w.Bytes
		openNS, openB = openNS+r.SelfNS, openB+r.Bytes
		ioWrites += row(k + " write/io.write").Count
		echoes += row(k + " echo").Count
	}
	usPerKB := func(ns, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(ns) / 1e3 / (float64(b) / 1024)
	}
	rep.set("record.seal_us_per_kb", "us/KiB", usPerKB(sealNS, sealB))
	rep.set("record.open_us_per_kb", "us/KiB", usPerKB(openNS, openB))
	rep.set("record.transport_writes_per_burst", "count", per(float64(ioWrites), echoes))

	hfr, hfw := row("full handshake/io.read"), row("full handshake/io.write")
	hrr, hrw := row("resumed handshake/io.read"), row("resumed handshake/io.write")
	rep.set("wire.bytes_per_full_hs", "B", per(float64(hfr.Bytes+hfw.Bytes), hf.Count))
	rep.set("wire.bytes_per_resumed_hs", "B", per(float64(hrr.Bytes+hrw.Bytes), hr.Count))
	rep.set("wire.writes_per_full_hs", "count", per(float64(hfw.Count), hf.Count))
	rep.set("net.dial_us_p50", "us", pct(dial, 0.50))

	if err := setKernels(rep); err != nil {
		return err
	}
	opsPerSec := func(k int) float64 { return ops[k] / secs[k] }
	rep.set("go.allocs_per_op", "count", godelta.allocs/ops[0])
	rep.set("go.gc_cpu_fraction", "ratio", godelta.gcFraction())
	rep.set("gen.late_p99_ms", "ms", pct(late, 0.99))
	setRegenZero(rep)
	rep.set("trace.overhead_pct", "%", (opsPerSec(0)/opsPerSec(1)-1)*100)
	return nil
}

// setKernels times the crypto kernels and reports them.
func setKernels(rep *report) error {
	k, err := kernels()
	if err != nil {
		return err
	}
	rep.set("rsa.decrypt_us", "us", k["rsa.decrypt"].us)
	rep.set("rsa.decrypt_allocs", "count", k["rsa.decrypt"].allocs)
	rep.set("rsa.verify_us", "us", k["rsa.verify"].us)
	rep.set("rsa.verify_allocs", "count", k["rsa.verify"].allocs)
	rep.set("aes.cbc_encrypt_us_per_kb", "us/KiB", k["aes.cbc_encrypt"].us)
	rep.set("aes.cbc_encrypt_allocs_per_kb", "count", k["aes.cbc_encrypt"].allocs)
	rep.set("aes.cbc_decrypt_us_per_kb", "us/KiB", k["aes.cbc_decrypt"].us)
	rep.set("aes.cbc_decrypt_allocs_per_kb", "count", k["aes.cbc_decrypt"].allocs)
	rep.set("sha1.hmac_us_per_kb", "us/KiB", k["sha1.hmac"].us)
	rep.set("sha1.hmac_allocs_per_kb", "count", k["sha1.hmac"].allocs)
	return nil
}

// Layers a workload does not exercise read 0.
var (
	regenLayerMetrics = []metricName{
		{"cmd.paperrepro_s", "s"}, {"cmd.lossfig_s", "s"}, {"cmd.lossfig_cpu_s", "s"},
		{"cmd.fleetfig_s", "s"}, {"cmd.fleetfig_cpu_s", "s"}, {"cmd.fleetfig_rss_mb", "MB"},
		{"lossfig.sim_rows_diverged", "count"},
	}
	sessionLayerMetrics = []metricName{
		{"gateway.queue_wait_us_p50", "us"}, {"gateway.queue_wait_us_p99", "us"},
		{"gateway.busy_us_per_full", "us"}, {"gateway.busy_us_per_resumed", "us"},
		{"gateway.handshake_failures", "count"}, {"gateway.peak_active", "count"},
		{"wtls.client_hs_self_us_full", "us"}, {"wtls.client_hs_self_us_resumed", "us"},
		{"wtls.resume_hit_ratio", "ratio"}, {"wtls.server_cache_entries", "count"},
		{"wtls.modeled_minstr_per_full_hs", "Minstr"}, {"wtls.implied_instr_per_ns", "instr/ns"},
		{"record.seal_us_per_kb", "us/KiB"}, {"record.open_us_per_kb", "us/KiB"},
		{"record.transport_writes_per_burst", "count"},
		{"wire.bytes_per_full_hs", "B"}, {"wire.bytes_per_resumed_hs", "B"},
		{"wire.writes_per_full_hs", "count"}, {"net.dial_us_p50", "us"},
		{"gen.late_p99_ms", "ms"},
	}
)

type metricName struct{ name, unit string }

func setRegenZero(rep *report) {
	for _, m := range regenLayerMetrics {
		rep.set(m.name, m.unit, 0)
	}
}

// regenWorkload is paper_regen: regenerate the paper's results with
// paperrepro, lossfig and fleetfig, and check their outputs.
func regenWorkload(ctx context.Context, rep *report, root string, d time.Duration, traced bool) error {
	binDir := root + "/" + outDir + "/bin"
	setup, err := setUpRegen(ctx, root, binDir, reps)
	if err != nil {
		return err
	}
	check := func(r regenRun) {
		for _, c := range r.cmds {
			failed := 0
			if c.err != nil {
				failed = 1
			}
			rep.count(1, failed, c.err)
		}
	}
	printRun := func(r regenRun) {
		fmt.Printf("  regeneration %.3f s:", r.wall)
		for _, c := range r.cmds {
			fmt.Printf(" %s %.3f s wall / %.3f s CPU / %.1f MB;", c.name, c.wall, c.cpu, c.rssMB)
		}
		fmt.Printf(" lossfig simulated rows diverged from idle golden: %d\n", r.cmds[1].diverged)
	}
	if !traced {
		var walls, rss []float64
		start := time.Now()
		for len(walls) == 0 || time.Since(start) < d {
			r := regen(ctx, root, binDir, nil)
			check(r)
			printRun(r)
			walls = append(walls, r.wall*1e3)
			largest := 0.0
			for _, c := range r.cmds {
				largest = max(largest, c.rssMB)
			}
			rss = append(rss, largest)
		}
		elapsed := time.Since(start).Seconds()
		rep.set("ops_per_s", "1/s", float64(len(walls))/elapsed)
		// A run holds two or three regenerations, too few for a tail
		// percentile: both latency metrics read the median.
		rep.set("op_p50_ms", "ms", median(walls))
		rep.set("op_p90_ms", "ms", median(walls))
		rep.set("setup_s", "s", setup)
		// The largest child's peak moves with its garbage collector's
		// timing; the median over regenerations steadies it.
		rep.set("peak_rss_mb", "MB", median(rss))
		note("regen_s", "s", median(walls)/1e3, len(walls))
		return nil
	}

	fmt.Printf("  set-up (median of %d): %.4f s\n", reps, setup)
	g0 := readGo()
	plain := regen(ctx, root, binDir, nil)
	g1 := readGo()
	check(plain)
	printRun(plain)
	tr := newTracer()
	rec := &recorder{t: tr}
	r := regen(ctx, root, binDir, rec)
	check(r)
	printRun(r)
	tr.file(rec, "regen")
	rows := layerTable(tr.spans)
	spanPath, tablePath, err := exportTrace(outDir+"/trace", "paper_regen", tr.spans, rows)
	if err != nil {
		return err
	}
	fmt.Printf("  spans: %s\n  self-time table: %s\n", spanPath, tablePath)

	for _, m := range sessionLayerMetrics {
		rep.set(m.name, m.unit, 0)
	}
	if err := setKernels(rep); err != nil {
		return err
	}
	var gd goDelta
	gd.add(g0, g1)
	rep.set("go.allocs_per_op", "count", gd.allocs)
	rep.set("go.gc_cpu_fraction", "ratio", gd.gcFraction())
	byName := map[string]cmdRun{}
	for _, c := range r.cmds {
		byName[c.name] = c
	}
	rep.set("cmd.paperrepro_s", "s", byName["paperrepro"].wall)
	rep.set("cmd.lossfig_s", "s", byName["lossfig"].wall)
	rep.set("cmd.lossfig_cpu_s", "s", byName["lossfig"].cpu)
	rep.set("cmd.fleetfig_s", "s", byName["fleetfig"].wall)
	rep.set("cmd.fleetfig_cpu_s", "s", byName["fleetfig"].cpu)
	rep.set("cmd.fleetfig_rss_mb", "MB", byName["fleetfig"].rssMB)
	rep.set("lossfig.sim_rows_diverged", "count", float64(byName["lossfig"].diverged))
	rep.set("trace.overhead_pct", "%", (r.wall/plain.wall-1)*100)
	return nil
}

// checkDeclared fails unless the run produced exactly the metrics that
// BENCHMARK.json declares for its kind of run, with the declared units.
func checkDeclared(path string, got map[string]metric, traced bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("run produced %d metrics, %s declares %d", len(got), path, len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("metric %s (%s) declared in %s: got %+v", d.Name, d.Unit, path, m)
		}
	}
	return nil
}
