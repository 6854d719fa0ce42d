// Command perfbench is the repository benchmark. It spawns the
// unmodified daisd (and, for gateway-mix, daisgw) binaries as separate
// processes, drives one seed-generated workload at them from this
// single generator process over at most nproc connections, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) with the JSON result object as the last line.
//
// Run it through run.sh, which builds the binaries from source first:
//
//	bash perfbench/run.sh --workload oltp-mix --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, every metric and how to check a
// performance claim against the benchmark.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"dais/internal/client"
	"dais/internal/ops"
	"dais/internal/resil"
	"dais/internal/soap"
	"dais/internal/telemetry"
)

const getTuplesAction = ops.ActGetTuples

// A run launches and fills the system at least minSetupRounds times
// and until setupBudget has passed (at most maxSetupRounds); setup_s is
// the median round. Only the last system is warmed and measured. The
// warm-up is not timed: it is a run of ordinary requests, whose latency
// p50_ms already reports, and on oltp-mix it was about 85% of a round,
// which made setup_s a second latency figure.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 2 * time.Second
)

type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
	commit   string
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	name := flag.String("workload", "", "workload: oltp-mix, bulk-fetch, analytic-rw or gateway-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the daisd and daisgw binaries")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/run", "directory for process logs and span dumps")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision being measured, recorded in the result")
	flag.Parse()
	cfg.workload = findWorkload(*name)
	if cfg.workload == nil || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, cfg.seconds, *trace)
		return 2
	}
	cfg.trace = *trace == 1
	// The generator's own collections would show up as latency in what
	// it measures; its heap is small, so collect less often.
	debug.SetGCPercent(400)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Interrupts cancel the run; every spawned process is still
	// stopped and reaped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	return 0
}

// newBench builds a generator client capped at conns connections, with
// the tracing wrappers installed when tr is non-nil.
func newBench(conns int, tr *tracer) (*bench, *http.Transport) {
	transport := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	pages := &pageTimer{}
	ics := []soap.Interceptor{pages.interceptor()}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = tr.transport(transport)
		ics = append(ics, tr.exchange())
	}
	return &bench{cl: client.New(&http.Client{Transport: rt}, ics...), tr: tr, pages: pages}, transport
}

// result is everything one run prints.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	report            []string // human-readable lines printed before the JSON
	facts             map[string]any
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) print(w *os.File) {
	for _, line := range r.report {
		fmt.Fprintln(w, "#", line)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "# %-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	facts, _ := json.Marshal(r.facts)
	fmt.Fprintf(w, "# facts %s\n", facts)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
}

// snapshot is the counters read around a measured phase.
type snapshot struct {
	metrics map[*proc][]telemetry.Sample
	cpu     map[*proc]time.Duration
	self    time.Duration
	host    hostCPU
	local   []telemetry.Sample // the generator's own client-side telemetry
}

func takeSnapshot(sys *system) (*snapshot, error) {
	s := &snapshot{metrics: map[*proc][]telemetry.Sample{}, cpu: map[*proc]time.Duration{}}
	for _, p := range sys.procs {
		m, err := scrape(p.base)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		s.metrics[p] = m
		if s.cpu[p], err = cpuTime(p.pid()); err != nil {
			return nil, err
		}
	}
	var err error
	if s.self, err = cpuTime(os.Getpid()); err != nil {
		return nil, err
	}
	if s.host, err = readHostCPU(); err != nil {
		return nil, err
	}
	s.local = telemetry.Default.Registry.Snapshot()
	return s, nil
}

// delta sums a counter's growth between two snapshots over processes.
func delta(a, b *snapshot, procs []*proc, name string, filter map[string]string) float64 {
	var d float64
	for _, p := range procs {
		d += telemetry.CountFromSamples(b.metrics[p], name, filter) - telemetry.CountFromSamples(a.metrics[p], name, filter)
	}
	return d
}

func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	nproc := runtime.NumCPU()
	e := &env{binDir: cfg.binDir, logDir: cfg.workDir, seed: cfg.seed, conns: nproc}
	res := &result{facts: map[string]any{
		"workload": w.name, "why": w.why, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": cfg.commit,
		"connections": nproc, "sizes": sizes(w),
	}}

	// Set-up, several times: launch → fill. The last system is warmed,
	// and it and its client are the ones measured.
	var sys *system
	defer func() {
		if sys != nil {
			sys.stop()
		}
	}()
	var b *bench
	var setups []float64
	for start := time.Now(); len(setups) < minSetupRounds ||
		(len(setups) < maxSetupRounds && time.Since(start) < setupBudget); {
		if sys != nil {
			sys.stop()
			sys = nil
		}
		bb, transport := newBench(e.conns, nil)
		defer transport.CloseIdleConnections()
		t0 := time.Now()
		s, err := w.launch(ctx, e, bb)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys, b = s, bb
	}
	t0 := time.Now()
	if err := w.warm(ctx, e, b, sys); err != nil {
		return nil, err
	}
	res.facts["warmup_s"] = time.Since(t0).Seconds()

	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		dur /= 2
	}
	res.correct = true
	before, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	ph, err := measurePhase(ctx, w, e, b, sys, dur)
	if err != nil {
		return nil, err
	}
	after, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	sum := summarize(w, ph)
	res.attempted += sum.attempted
	res.failed += sum.failed
	for _, f := range sum.failures {
		res.note("failure: %s", f)
	}
	if sum.failed > 0 || !hygiene(res, sys, before, after) {
		res.correct = false
	}
	res.facts["host_steal_pct"] = after.host.stealPct(before.host)
	res.facts["interference"] = map[string]float64{"phase": sum.foreignAll, "kept": sum.foreignKept}
	res.note("host CPU lost to interference %.1f%% over the phase, %.1f%% over its kept quiet part (steal %.1f%%)",
		100*sum.foreignAll, 100*sum.foreignKept, after.host.stealPct(before.host))
	if generatorBound(sum.sendLagP99, sum.queueWaitP99) {
		// The generator fell behind its own schedule before the
		// target did: the numbers describe the generator.
		res.correct = false
		res.note("invalid: generator send lag p99 %.2f ms exceeds %.0f ms and the queue wait p99 %.2f ms",
			sum.sendLagP99, ms(maxSendLag), sum.queueWaitP99)
	}

	if !cfg.trace {
		var rss float64
		for _, p := range sys.procs {
			v, err := p.peakRSSMB()
			if err != nil {
				return nil, err
			}
			rss += v
		}
		// The capacity search runs after the peak RSS is read, so the
		// memory figure describes the nominal load only.
		if w.rate > 0 {
			c, err := searchCapacity(ctx, e, w.rate, b.traced(w.mix(b, sys)))
			if err != nil {
				return nil, err
			}
			sum.capacity = c
		}
		sum.addEndToEnd(res, median(setups), rss)
		res.facts["setup_s_rounds"] = setups
		return res, nil
	}

	// Traced variant: the same phase again with the wrappers installed,
	// then the layer attribution and the in-process replays.
	tr := newTracer()
	tb, transport := newBench(e.conns, tr)
	defer transport.CloseIdleConnections()
	if err := w.warm(ctx, e, tb, sys); err != nil {
		return nil, err
	}
	tr.reset()
	tb.cl.ResetCounters()
	tbefore, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	tph, err := measurePhase(ctx, w, e, tb, sys, dur)
	if err != nil {
		return nil, err
	}
	tafter, err := takeSnapshot(sys)
	if err != nil {
		return nil, err
	}
	tsum := summarize(w, tph)
	res.attempted += tsum.attempted
	res.failed += tsum.failed
	for _, f := range tsum.failures {
		res.note("traced failure: %s", f)
	}
	if tsum.failed > 0 || !hygiene(res, sys, tbefore, tafter) {
		res.correct = false
	}
	if err := tr.dump(filepath.Join(cfg.workDir, "spans-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	layers(res, sys, tr, tb, sum, tsum, before, after, tbefore, tafter)
	if err := replays(ctx, res, w, sys, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// measurePhase runs one measured phase of w and records the host's
// interference over it.
func measurePhase(ctx context.Context, w *workload, e *env, b *bench, sys *system, dur time.Duration) (*phase, error) {
	pids := []int{os.Getpid()}
	for _, p := range sys.procs {
		pids = append(pids, p.pid())
	}
	watch := watchInterference(pids)
	ph, err := w.measure(ctx, e, b, sys, dur)
	slots := watch.finish()
	if err != nil {
		return nil, err
	}
	ph.slots = slots
	return ph, nil
}

// sizes records the rates and data sizes a workload runs with.
func sizes(w *workload) map[string]any {
	var m map[string]any
	switch w.name {
	case "oltp-mix":
		m = map[string]any{"emp_rows": oltpRows, "acct_rows": acctRows}
	case "bulk-fetch":
		m = map[string]any{"result_rows": bulkRows, "chunk_rows": client.DefaultChunkRows}
	case "analytic-rw":
		m = map[string]any{"emp_rows": analyticRows, "write_rps": analyticWrites, "queries_per_cycle": 8}
	case "gateway-mix":
		m = map[string]any{"backends": 3, "emp_rows_per_backend": oltpRows, "part_rows": partRows}
	}
	if w.rate > 0 {
		m["nominal_rps"] = w.rate
		m["capacity"] = map[string]any{"slo_ms": ms(capacitySLO), "start_rps": w.rate * capacityStart,
			"grow": capacityGrow, "steps": capacitySteps, "step_s": capacityStepDur.Seconds()}
	}
	return m
}

// hygiene checks that the phase left nothing behind: every derived
// resource destroyed (live WSRF resources back to the start count) and
// no retries or breaker transitions anywhere.
func hygiene(res *result, sys *system, before, after *snapshot) bool {
	ok := true
	live := delta(before, after, sys.daisds, telemetry.MetricWSRFLive, nil)
	if live != 0 {
		res.note("hygiene: wsrf.live_delta = %.0f, want 0", live)
		ok = false
	}
	retries := delta(before, after, sys.procs, resil.MetricRetries, nil) +
		localDelta(before, after, resil.MetricRetries)
	flips := delta(before, after, sys.procs, resil.MetricBreakerTransitions, nil) +
		localDelta(before, after, resil.MetricBreakerTransitions)
	if retries != 0 || flips != 0 {
		res.note("hygiene: %.0f retries and %.0f breaker transitions, want 0", retries, flips)
		ok = false
	}
	return ok
}

func localDelta(a, b *snapshot, name string) float64 {
	return telemetry.CountFromSamples(b.local, name, nil) - telemetry.CountFromSamples(a.local, name, nil)
}
