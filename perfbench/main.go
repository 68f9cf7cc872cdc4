// Command perfbench is the repository benchmark. It drives the public entry
// points inlinered.Run, Array.Serve and Cluster.ReadBatch from one
// closed-loop client, prints every end-to-end metric with its unit, and
// checks the outputs in untimed passes. With -trace 1 it instead replays
// each call through the layers' public functions and prints per-layer
// metrics, writing the spans as a Chrome trace. METHOD.md records why each
// workload exists and the base of every ratio.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldoutSalt moves a seed into the held-out input space: tuning uses
// plain seeds, and a gain is confirmed with -heldout on inputs it was not
// tuned on.
const heldoutSalt = 0x5eed_0000_0000

// blockBytes is the user op size every ops-based metric counts in.
const blockBytes = 4096

// bench is one workload bound to its generated inputs. Generation happens
// before any method is called and is never timed.
type bench interface {
	// setUp builds the system under test afresh: construction, fill and
	// warm passes. It is timed as setup_s and repeated; the last one stays.
	setUp() error
	// call issues entry-point call i of the closed loop and returns the
	// 4 KiB-op and user-byte counts it completed and the ops that failed.
	call(i int) (ops, bytes, failed int64)
	// verify runs the untimed correctness pass over the first calls
	// calls; it returns the ops it checked and the ops that failed.
	verify(calls int) (checked, failed int64, err error)
	// deterministic returns reduction_ratio and sim_kiops, taken from the
	// reports of the first detCalls calls; every run makes at least that
	// many, so both are fixed for a seed.
	deterministic() (reduction, simKIOPS float64)
	detCalls() int
	// startTrace prepares the layer mirrors; replay mirrors call i through
	// the layers' public functions (spans go to tr, nil while catching up).
	startTrace() error
	replay(i int, tr *tracer, parent int32, callDur time.Duration)
	// layers returns the per-layer metrics this workload measures, or an
	// error when the mirrors' counters disagree with the program's.
	layers() (map[string]float64, error)
	close()
}

// runConfig is one run's settings. tiny shrinks the workloads for the
// self-check.
type runConfig struct {
	workload string
	seed     int64
	heldout  bool
	seconds  time.Duration
	trace    bool
	tiny     bool
	minCalls int // timed calls a run makes at least (p90 needs 100)
	setups   int // set-up repetitions behind the setup_s median
	traceDir string
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_MBps", "MB/s"},
	{"call_p50_ms", "ms"},
	{"call_p90_ms", "ms"},
	{"ok_op_share", "share"},
	{"reduction_ratio", "x"},
	{"sim_kiops", "kIOPS"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_op", "allocs/op"},
}

// perLayer lists the per-layer metrics and their units. Every traced run
// reports all of them; a layer the workload does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"chunk.ns_per_MB", "ns/MB"},
	{"dedup.hash_ns_per_MB", "ns/MB"},
	{"dedup.index_ns_per_op", "ns/op"},
	{"dedup.index_steps_per_op", "steps/op"},
	{"dedup.hit_ratio", "ratio"},
	{"lz.compress_ns_per_MB", "ns/MB"},
	{"lz.compress_ratio", "x"},
	{"core.useful_share", "share"},
	{"volume.write_us_p50", "us"},
	{"volume.write_us_p90", "us"},
	{"volume.write_self_us_p50", "us"},
	{"volume.read_us_p50", "us"},
	{"volume.trim_us_p50", "us"},
	{"volume.clean_ms_p50", "ms"},
	{"lz.decode_ns_per_MB", "ns/MB"},
	{"volume.cache_hit_rate", "ratio"},
	{"volume.gc_moved_bytes_per_MB", "B/MB"},
	{"ssd.write_amplification", "x"},
	{"dedup.journal_bytes_per_MB", "B/MB"},
	{"serve.dispatch_ms_p50", "ms"},
	{"serve.shard_imbalance", "x"},
	{"workload.payload_share", "share"},
	{"volume.readbatch_plan_us_p50", "us"},
	{"volume.readbatch_decode_us_p50", "us"},
	{"volume.readbatch_commit_us_p50", "us"},
	{"parallel.map_us_p50", "us"},
	{"lz.subdecode_ns_per_MB", "ns/MB"},
	{"lz.parts_per_blob", "parts/blob"},
	{"volume.decoded_blobs_per_read", "blobs/read"},
	{"volume.cache_admissions", "1/kread"},
	{"volume.cache_ghost_hits", "1/kread"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.node_imbalance", "x"},
	{"trace.overhead_share", "share"},
}

var workloads = []string{"ingest", "oltp", "boot_storm"}

func newBench(cfg runConfig) (bench, error) {
	seed := cfg.seed
	if cfg.heldout {
		seed ^= heldoutSalt
	}
	switch cfg.workload {
	case "ingest":
		return newIngest(seed, cfg.tiny)
	case "oltp":
		return newOLTP(seed, cfg.tiny, cfg.minCalls)
	case "boot_storm":
		return newBootStorm(seed, cfg.tiny, cfg.minCalls)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// loopStats summarizes one closed-loop phase.
type loopStats struct {
	durs, net          []time.Duration // per call: wall, and wall net of its steal
	ops, bytes, failed int64
	wall, netWall      time.Duration // timed region, replays excluded
	windowMBps         []float64     // user MB per net second, per window
	mallocs            uint64
	calls              int
}

// p90Group is the call count behind one p90 sample: ten calls beyond it.
const p90Group = 100

// groupP90 is the median over consecutive p90Group-call groups of each
// group's p90. Host slowdowns of a few seconds land in few groups, so the
// median stays where a steady host would put the pooled p90.
func groupP90(net []time.Duration) float64 {
	if len(net) < 2*p90Group {
		return durQuantile(net, 0.9, time.Millisecond)
	}
	var p90s []float64
	for lo := 0; lo+p90Group <= len(net); lo += p90Group {
		p90s = append(p90s, durQuantile(net[lo:lo+p90Group], 0.9, time.Millisecond))
	}
	return quantile(p90s, 0.5)
}

// closedLoop issues calls first, first+1, ... until d has passed and at
// least minCalls returned; each call starts when the previous one returns.
// With tr set, each call gets an entry-point span and is then replayed
// through the layers; the replay counts toward d but not toward wall.
func closedLoop(b bench, first int, d time.Duration, minCalls int, tr *tracer, entry string) loopStats {
	st := loopStats{durs: make([]time.Duration, 0, 1024), net: make([]time.Duration, 0, 1024)}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	deadline := start.Add(d)
	w, wReplay, wBytes := startNet(), time.Duration(0), int64(0)
	closeWindow := func() {
		wall, f := w.since()
		st.wall += wall - wReplay
		st.netWall += scale(wall-wReplay, f)
		if st.bytes > wBytes { // the closing window after the last call may be empty
			st.windowMBps = append(st.windowMBps, float64(st.bytes-wBytes)/1e6/scale(wall-wReplay, f).Seconds())
		}
		w, wReplay, wBytes = startNet(), 0, st.bytes
	}
	for i := first; ; i++ {
		if st.calls >= minCalls && !time.Now().Before(deadline) {
			break
		}
		c := startNet()
		id, t := tr.begin(entry, -1, int64(i))
		ops, bytes, failed := b.call(i)
		dur := tr.end(id, t)
		_, f := c.since()
		st.durs = append(st.durs, dur)
		st.net = append(st.net, scale(dur, f))
		st.ops += ops
		st.bytes += bytes
		st.failed += failed
		st.calls++
		if tr != nil {
			r0 := time.Now()
			b.replay(i, tr, id, dur)
			wReplay += time.Since(r0)
		}
		if time.Since(w.wall) >= netWindow {
			closeWindow()
		}
	}
	closeWindow()
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - m0
	return st
}

// run executes one benchmark run and returns its result.
func run(cfg runConfig, out *bufio.Writer) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res := &result{Correct: true, Metrics: map[string]metric{}}

	setups := cfg.setups
	if cfg.trace {
		setups = 1 // setup_s is not reported by traced runs
	}
	setupTimes := make([]float64, 0, setups)
	for k := 0; k < setups; k++ {
		runtime.GC()
		t := startNet()
		if err := b.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, scale(t.since()).Seconds())
	}

	if !cfg.trace {
		st := closedLoop(b, 0, cfg.seconds, max(cfg.minCalls, b.detCalls()), nil, "")
		rss := peakRSSMB() // before verification, whose buffers are the benchmark's
		checked, failed, err := b.verify(st.calls)
		if err != nil {
			fmt.Fprintf(out, "verification failed: %v\n", err)
			res.Correct = false
		}
		res.Attempted = st.ops + checked
		res.Failed = st.failed + failed
		red, kiops := b.deterministic()
		vals := map[string]float64{
			"throughput_MBps": quantile(st.windowMBps, 0.5),
			"call_p50_ms":     durQuantile(st.net, 0.5, time.Millisecond),
			"call_p90_ms":     groupP90(st.net),
			"ok_op_share":     1 - ratio(float64(res.Failed), float64(res.Attempted)),
			"reduction_ratio": red,
			"sim_kiops":       kiops,
			"setup_s":         quantile(setupTimes, 0.5),
			"peak_rss_mb":     rss,
			"allocs_per_op":   ratio(float64(st.mallocs), float64(st.ops)),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Fprintf(out, "timed region: %d calls, %d ops, %.3f s wall, %.3f s net of steal; wall p50 %.3f ms, pooled net p90 %.3f ms, mean net throughput %.3f MB/s\n",
			st.calls, st.ops, st.wall.Seconds(), st.netWall.Seconds(), durQuantile(st.durs, 0.5, time.Millisecond),
			durQuantile(st.net, 0.9, time.Millisecond), float64(st.bytes)/1e6/st.netWall.Seconds())
	} else {
		// Phase A (a quarter of the time) is untraced: its p50 is the base
		// of trace.overhead_share. The mirrors then catch up on A's calls,
		// and phase B traces for the rest.
		minCalls := max(cfg.minCalls/5, 3)
		a := closedLoop(b, 0, cfg.seconds/4, minCalls, nil, "")
		if err := b.startTrace(); err != nil {
			return nil, fmt.Errorf("trace set-up: %w", err)
		}
		for i := 0; i < a.calls; i++ {
			b.replay(i, nil, -1, 0)
		}
		tr := newTracer()
		entry := map[string]string{"ingest": "inlinered.Run", "oltp": "Array.Serve", "boot_storm": "Cluster.ReadBatch"}[cfg.workload]
		bst := closedLoop(b, a.calls, cfg.seconds-cfg.seconds/4, minCalls, tr, entry)
		// Layers first: verification reads would move the counters.
		vals, err := b.layers()
		if err != nil {
			return nil, fmt.Errorf("layer mirror: %w", err)
		}
		checked, failed, err := b.verify(a.calls + bst.calls)
		if err != nil {
			fmt.Fprintf(out, "verification failed: %v\n", err)
			res.Correct = false
		}
		res.Attempted = a.ops + bst.ops + checked
		res.Failed = a.failed + bst.failed + failed
		vals["trace.overhead_share"] = durQuantile(bst.net, 0.5, time.Nanosecond)/durQuantile(a.net, 0.5, time.Nanosecond) - 1
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		summary := map[string]any{"envelope": envelope(cfg), "per_layer": res.Metrics,
			"untraced_calls": a.calls, "traced_calls": bst.calls}
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
		if err := tr.writeChrome(path, summary); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %s (%d spans, %d untraced + %d traced calls)\n", path, len(tr.spans), a.calls, bst.calls)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// envelope stamps the host and inputs a result was measured on.
func envelope(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"heldout":    cfg.heldout,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     cfg.commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func main() {
	cfg := runConfig{minCalls: 100, setups: 7}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.BoolVar(&cfg.heldout, "heldout", false, "draw inputs from the held-out seed space")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for Chrome trace files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the benchmarked tree was built from")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	env, _ := json.Marshal(envelope(cfg))
	fmt.Fprintf(out, "envelope %s\n", env)
	res, err := run(cfg, out)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	printTable(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
}

func printTable(out *bufio.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
