// Command perfbench is the repository benchmark. It runs one named workload
// in a single process over loopback TCP with AES-GCM sealed frames
// (transport.TCPNode + transport.AESCodec), checks every answer against an
// oracle, prints each metric by name with its unit and sample count, and
// ends with one JSON result line:
//
//	bash perfbench/run.sh --workload serve-b1 --seed 1 --seconds 25 --trace 0
//
// Workloads (all closed-loop, at most two client connections):
//
//   - serve-b1: KNN(5) on normalized Diabetes (768x8) behind
//     protocol.NewMiningService (2 workers); one client sends
//     single-record Classify calls, on one P (GOMAXPROCS 1). Per-frame
//     costs dominate.
//   - serve-b64: KNN(5) on normalized Shuttle (2000x9); two clients send
//     64-record ClassifyBatch calls. Predict dominates.
//   - ingest-replicate: a cluster.Node leader and read replica (static
//     table, KNN(5), Diabetes initial set, RefitEvery 1024); one
//     cluster.Client pushes 16-record chunks while another classifies one
//     single record per push, beside the pushes. Episodes of a fixed chunk
//     count, each on a fresh cluster, repeat until the time is up.
//   - sap-round: full SAP rounds one at a time, each over a fresh TCP mesh
//     (coordinator, two providers, miner) on Shuttle split across the three
//     parties; every party optimizes at the paper's defaults, then runs
//     its role.
//
// End-to-end metrics (--trace 0), reported by every workload:
//
//   - setup_s: median time from building a stack to its first successful
//     operation (listeners, dials, fit, first call); serve builds several
//     stacks, ingest-replicate one per episode. Every SAP round stands up
//     its own mesh (four listeners with their AES codecs, every peer
//     added; dials happen in the round), and sap-round times that. Scaled
//     to the nominal core (below).
//   - norm_cpu_us_per_record: the whole system's CPU time (user + system,
//     every node and client; the process holds them all) over the measured
//     window, per record the workload moved: classified records (serve-*),
//     acknowledged plus classified records (ingest-replicate), unified
//     records (sap-round). It is what a record costs the machine that
//     serves it, scaled to the nominal core.
//   - heap_peak_mb: the Go heap's typical peak (median of per-second peaks).
//
// The two times are scaled to a nominal core (calib.go): a reference
// kernel runs for about 0.1 ms every 25 ms beside the workload, and its
// median CPU time per unit against the nominal 30 us gives the speed of the
// cores the run had. Time the hypervisor steals from the VM is not CPU
// time, and the scaling takes out the drift of the cores' own speed. On a
// shared 2-vCPU Xeon VM the reference unit took 27-40 us over a few hours;
// in sets of ten runs of the same code, CPU time per record spread 5-14%
// between its quartiles as measured and 3-8% once scaled. The report
// prints the measured values too.
//
// The report also prints what a user waits on: throughput and latency
// p50/p90/p99 of the primary call (Classify/ClassifyBatch on serve-*, the
// reader's Classify next to the ingest on ingest-replicate, one full round
// of optimize, exchange and unify on sap-round), computed per one-second
// window and averaged across windows without the fastest and slowest
// quarter. These wall-clock figures are not in the result line: on a
// shared host they move with the neighbours' load by more than any bound a
// change could be judged by (in busy stretches on that VM, ten runs of the
// same code spread 20-50% between their quartiles in throughput and
// latency), and steal, which CPU time leaves out, is in them. Failed or
// wrong answers are counted in the result's failed field; the report
// prints fail_ratio and the secondary latencies (push_ms, optimize_ms,
// exchange_ms) with their sample counts.
//
// With --trace 1 the run is split into an untraced quarter, a traced half
// and another untraced quarter. The traced half installs timing wrappers
// at every layer boundary the caller supplies (transport.Codec, transport.Conn, classify.Classifier,
// metrics.Metrics, the service's model hooks). The traced result carries
// the per-layer metrics (a layer the workload bypasses reports 0), the
// stage breakdown of the primary call, replays of frames and models
// captured from the run, and the tracing overhead; spans are written to
// --trace-dir when the run ends.
//
// Workload inputs are generated from --seed; the system under test only
// ever sees the generated inputs. Linux only (rusage, uname). The smoke
// test runs every workload at a tiny size: cd perfbench && go test .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one timed stretch of a workload produced.
type phase struct {
	setups    []time.Duration // one per stack built: start to first successful operation
	lat       []float64       // primary call latency, ms
	latAt     []float64       // when each call completed, seconds into the measured window
	records   int64           // records moved by the primary load
	recFrom   []float64       // when the call that moved records began, seconds into the measured window
	recTo     []float64       // when it completed
	recN      []float64       // how many records it moved
	ops       int64           // primary operations completed
	wall      time.Duration   // the measured window
	cpu       time.Duration   // process CPU time spent in the measured window
	work      int64           // records cpu is spread over: the primary load's and any read beside it
	attempted int64           // operations attempted, primary and secondary
	failed    int64           // operations that failed or answered wrongly
	oracle    []string        // end-of-run oracle violations
	side      map[string][]float64
	layer     map[string]metric // workload-specific per-layer metrics (traced)
	notes     []string          // extra report lines
}

func newPhase() *phase {
	return &phase{side: map[string][]float64{}, layer: map[string]metric{}}
}

// reserve sizes the sample slices for n more samples, so appending during
// the run does not move the heap peak.
func (p *phase) reserve(n int) {
	p.lat, p.latAt = slices.Grow(p.lat, n), slices.Grow(p.latAt, n)
	p.recFrom, p.recTo, p.recN = slices.Grow(p.recFrom, n), slices.Grow(p.recTo, n), slices.Grow(p.recN, n)
}

// call records one primary call that completed at offset at into the
// measured window after taking lat.
func (p *phase) call(at, lat time.Duration) {
	p.lat = append(p.lat, float64(lat)/1e6)
	p.latAt = append(p.latAt, at.Seconds())
}

// moved records n records moved by a primary-load call that ran from offset
// from to offset to into the measured window.
func (p *phase) moved(from, to time.Duration, n int) {
	p.records += int64(n)
	p.recFrom = append(p.recFrom, from.Seconds())
	p.recTo = append(p.recTo, to.Seconds())
	p.recN = append(p.recN, float64(n))
}

// window is the slice of the measured time the report's wall-clock
// throughput and latency are computed over before averaging across slices.
const window = time.Second

// windowed splits the measured window into one-second slices and returns
// throughput and latency p50/p90 as interquartile means across slices (the
// fastest and slowest quarter dropped): bursts of interference from outside
// the process move only the slices they touch, and slower stretches that
// last several slices are averaged in rather than flipping a median. Runs
// shorter than three slices report whole-run values.
func windowed(p *phase) (tput, p50, p90 float64) {
	n := int(p.wall / window)
	if n < 3 {
		if p.wall > 0 {
			tput = float64(p.records) / p.wall.Seconds()
		}
		return tput, pctl(p.lat, 0.5), pctl(p.lat, 0.9)
	}
	ws := window.Seconds()
	lats := make([][]float64, n)
	recs := make([]float64, n)
	for i, at := range p.latAt {
		if w := int(at / ws); w < n {
			lats[w] = append(lats[w], p.lat[i])
		}
	}
	// A call's records are spread over the windows its run overlaps, so a
	// long call (a SAP round moves the whole union at once) does not
	// quantize the per-window throughput.
	for i, to := range p.recTo {
		from := p.recFrom[i]
		if to <= from {
			if w := int(to / ws); w < n {
				recs[w] += p.recN[i]
			}
			continue
		}
		for w := int(from / ws); w < n && float64(w)*ws < to; w++ {
			overlap := min(to, float64(w+1)*ws) - max(from, float64(w)*ws)
			recs[w] += p.recN[i] * overlap / (to - from)
		}
	}
	var tputs, p50s, p90s []float64
	for w := 0; w < n; w++ {
		tputs = append(tputs, recs[w]/window.Seconds())
		if len(lats[w]) >= 10 {
			p50s = append(p50s, pctl(lats[w], 0.5))
			p90s = append(p90s, pctl(lats[w], 0.9))
		}
	}
	return interquartileMean(tputs), interquartileMean(p50s), interquartileMean(p90s)
}

// interquartileMean averages xs without its lowest and highest quarter.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// bench is one workload with its generated inputs.
type bench interface {
	// run measures the workload for about d; tr is nil for an untraced run.
	run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
}

type workload struct {
	name  string
	procs int // GOMAXPROCS for the run; 0 leaves the default
	build func(seed int64, sz sizes) (bench, error)
}

// datasetSeed fixes the generated stand-ins for the paper's UCI datasets:
// like the real datasets they do not change between runs. The run's seed
// drives everything else (queries, chunks, partitions, protocol
// randomness).
const datasetSeed = 1

// sizes are the knobs the smoke test shrinks.
type sizes struct {
	queries    int // query pool per serve client
	chunks     int // ingest chunks per episode
	setupReps  int // stacks built per untraced serve run
	sapDataset string
}

var fullSizes = sizes{queries: 2048, chunks: 480, setupReps: 21, sapDataset: "Shuttle"}

var workloads = []workload{
	// One serve-b1 client: with two, requests collide in the service's
	// single receive loop and the share of collided calls swings with the
	// host's load, so the tail moved more between runs than the gate's
	// bound. A lone closed-loop client keeps about one goroutine runnable
	// at a time, so serve-b1 runs on one P: on two, each frame is handed
	// across CPUs and the idle P spins for the next, which cost a third of
	// the CPU time per call (about 680 against 440 us on a 2-vCPU Xeon VM)
	// and made it follow the host's load (ten runs spread 13% between their
	// quartiles, against 1% on one P). Batch-64 calls are dominated by
	// predict and keep both CPUs busy with two clients.
	{"serve-b1", 1, func(seed int64, sz sizes) (bench, error) { return newServe(seed, 1, 1, sz) }},
	{"serve-b64", 0, func(seed int64, sz sizes) (bench, error) { return newServe(seed, 64, min(2, nproc()), sz) }},
	{"ingest-replicate", 0, newIngest},
	{"sap-round", 0, newSAP},
}

// endToEnd and perLayer list the metric names and units the result line
// carries in each mode; BENCHMARK.json declares the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"norm_cpu_us_per_record", "us"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"transport.seal_us", "us"},
	{"transport.open_us", "us"},
	{"transport.send_us", "us"},
	{"transport.req_frame_bytes", "B"},
	{"transport.resp_frame_bytes", "B"},
	{"transport.bytes_per_record", "B"},
	{"protocol.client_encode_us", "us"},
	{"protocol.client_decode_us", "us"},
	{"protocol.service_self_us", "us"},
	{"protocol.rtt_residual_us", "us"},
	{"protocol.rtt_residual_share", "%"},
	{"protocol.frame_decode_us", "us"},
	{"protocol.frame_decode_allocs", "count"},
	{"protocol.sap_exchange_ms", "ms"},
	{"protocol.sap_bytes", "B"},
	{"classify.predict_us", "us"},
	{"classify.fit_ms", "ms"},
	{"classify.refits", "count"},
	{"classify.model_bytes", "B"},
	{"classify.model_encode_ms", "ms"},
	{"classify.model_decode_ms", "ms"},
	{"cluster.sync_lag_ms", "ms"},
	{"cluster.installs_per_swap", "ratio"},
	{"cluster.sync_frame_bytes", "B"},
	{"cluster.route_misses", "count"},
	{"cluster.failovers", "count"},
	{"privacy.optimize_ms", "ms"},
	{"perturb.apply_ms", "ms"},
	{"proc.cpu_busy_ratio", "ratio"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_cycles_per_kop", "count"},
	{"trace.overhead_pct", "%"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	sz       sizes
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory traced runs write their spans to (empty: none)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.sz = fullSizes
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one benchmark run and returns its result; the report lines
// go to out.
func run(o options, out io.Writer) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	fmt.Fprintf(out, "machine %s\n", machine())

	b, err := w.build(o.seed, o.sz)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	// Every run must end well inside the caller's 180 s budget.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	d := time.Duration(o.seconds * float64(time.Second))

	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		smp := startSampler()
		cal := startCalibration()
		p, err := b.run(ctx, d, nil)
		unit := cal.stop()
		peak := smp.stop()
		if err != nil {
			return nil, err
		}
		tally(res, p)
		e2e := endToEndMetrics(p, peak)
		fmt.Fprintln(out, "as measured:")
		printPhase(out, p, e2e)
		speed := refUnit.Seconds() * 1e6 / unit
		fmt.Fprintf(out, "core speed: %.4f of nominal (reference unit %.3f us of CPU, nominal %.0f us); the result line's times are scaled by it\n",
			speed, unit, refUnit.Seconds()*1e6)
		res.Metrics["setup_s"] = metric{e2e["setup_s"].Value * speed, "s"}
		res.Metrics["norm_cpu_us_per_record"] = metric{e2e["cpu_us_per_record"].Value * speed, "us"}
		res.Metrics["heap_peak_mb"] = e2e["heap_peak_mb"]
		fmt.Fprintln(out, "end-to-end:")
		for _, m := range endToEnd {
			fmt.Fprintf(out, "  %-30s %14.6f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
		return res, nil
	}

	// Traced run: the traced half sits between two untraced quarters, so
	// the tracing overhead compares against untraced time on both sides of
	// it. The process counters come from the untraced quarters.
	var untraced []*phase
	var usage procSnap
	quarter := func(name string) error {
		before := readProc()
		pu, err := b.run(ctx, d/4, nil)
		if err != nil {
			return err
		}
		usage = usage.add(readProc().sub(before))
		untraced = append(untraced, pu)
		tally(res, pu)
		fmt.Fprintln(out, name)
		printPhase(out, pu, endToEndMetrics(pu, 0))
		return nil
	}
	if err := quarter("untraced quarter before:"); err != nil {
		return nil, err
	}
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	defer tr.close() // on error paths; the success path checks the close below
	pt, err := b.run(ctx, d/2, tr)
	if err != nil {
		return nil, err
	}
	tally(res, pt)
	fmt.Fprintln(out, "traced half:")
	printPhase(out, pt, endToEndMetrics(pt, 0))
	if err := quarter("untraced quarter after:"); err != nil {
		return nil, err
	}

	layers := map[string]metric{}
	for k, v := range pt.layer {
		layers[k] = v
	}
	for k, v := range procMetrics(usage, untraced[0].ops+untraced[1].ops) {
		layers[k] = v
	}
	_, u1, _ := windowed(untraced[0])
	_, u2, _ := windowed(untraced[1])
	if u := (u1 + u2) / 2; u > 0 {
		_, t, _ := windowed(pt)
		layers["trace.overhead_pct"] = metric{100 * (t/u - 1), "%"}
		fmt.Fprintf(out, "tracing overhead: traced latency p50 %.4f ms vs untraced %.4f ms (%+.1f%%)\n", t, u, 100*(t/u-1))
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			v = metric{0, m.unit} // the workload bypasses this layer
		}
		res.Metrics[m.name] = v
	}
	fmt.Fprintln(out, "per-layer:")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if n := tr.dropped(); n > 0 {
		fmt.Fprintf(out, "spans: %d dropped once the span memory was full\n", n)
	}
	if o.traceDir != "" {
		path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", tr.recorded(), path)
	}
	if err := tr.close(); err != nil {
		return nil, fmt.Errorf("release trace memory: %w", err)
	}
	return res, nil
}

// tally folds a phase's operation counts and oracle verdicts into the result.
func tally(res *result, p *phase) {
	res.Attempted += p.attempted
	res.Failed += p.failed + int64(len(p.oracle))
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

func endToEndMetrics(p *phase, heapPeak float64) map[string]metric {
	setups := make([]float64, len(p.setups))
	for i, s := range p.setups {
		setups[i] = s.Seconds()
	}
	cpu := 0.0
	if p.work > 0 {
		cpu = p.cpu.Seconds() * 1e6 / float64(p.work)
	}
	return map[string]metric{
		"setup_s":           {pctl(setups, 0.5), "s"},
		"cpu_us_per_record": {cpu, "us"},
		"heap_peak_mb":      {heapPeak, "MB"},
	}
}

func printPhase(out io.Writer, p *phase, e2e map[string]metric) {
	n := len(p.lat)
	if len(p.setups) > 0 {
		fmt.Fprintf(out, "  %-30s %14.6f %-4s n=%d\n", "setup_s", e2e["setup_s"].Value, "s", len(p.setups))
	}
	fmt.Fprintf(out, "  %-30s %14.4f %-4s cpu=%.3fs records=%d wall=%.3fs\n",
		"cpu_us_per_record", e2e["cpu_us_per_record"].Value, "us", p.cpu.Seconds(), p.work, p.wall.Seconds())
	tput, p50, p90 := windowed(p)
	fmt.Fprintf(out, "  %-30s %14.3f %-4s records=%d wall=%.3fs, interquartile mean over %d one-second windows (not gated)\n",
		"throughput_rps", tput, "1/s", p.records, p.wall.Seconds(), int(p.wall/window))
	fmt.Fprintf(out, "  %-30s %14.4f %-4s n=%d (not gated)\n", "latency_p50_ms", p50, "ms", n)
	fmt.Fprintf(out, "  %-30s %14.4f %-4s n=%d (not gated)\n", "latency_p90_ms", p90, "ms", n)
	fmt.Fprintf(out, "  %-30s %14.4f %-4s n=%d (not gated)\n", "latency_p99_ms", pctl(p.lat, 0.99), "ms", n)
	if e2e["heap_peak_mb"].Value > 0 {
		fmt.Fprintf(out, "  %-30s %14.3f %-4s\n", "heap_peak_mb", e2e["heap_peak_mb"].Value, "MB")
	}
	ratio := 0.0
	if p.attempted > 0 {
		ratio = float64(p.failed+int64(len(p.oracle))) / float64(p.attempted)
	}
	fmt.Fprintf(out, "  %-30s %14.6f %-4s failed=%d attempted=%d\n", "fail_ratio", ratio, "", p.failed+int64(len(p.oracle)), p.attempted)
	names := make([]string, 0, len(p.side))
	for k := range p.side {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := p.side[k]
		fmt.Fprintf(out, "  %-30s p50 %.4f p90 %.4f p99 %.4f n=%d\n", k, pctl(xs, 0.5), pctl(xs, 0.9), pctl(xs, 0.99), len(xs))
	}
	for _, v := range p.oracle {
		fmt.Fprintf(out, "  ORACLE VIOLATION: %s\n", v)
	}
	for _, l := range p.notes {
		fmt.Fprintf(out, "  %s\n", l)
	}
}

// pctl is the nearest-rank q-quantile of xs (0 when empty). xs is not
// modified.
func pctl(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// machine describes the host every result was measured on.
func machine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), kernel())
}
