package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dais/internal/loadgen"
)

// kind classifies a request for the read/write metrics.
type kind int

const (
	kindRead  kind = iota // returns data the benchmark checks
	kindWrite             // SQL UPDATE or INSERT
	kindOther             // lifetime writes (SetTerminationTime)
)

// outcome is what one request reports back to its loop.
type outcome struct {
	rows      int           // checked result rows delivered
	indirect  bool          // a factory → GetTuples → destroy session
	firstPage time.Duration // indirect sessions: factory call → first page
	// deliveries are a bulk-fetch session's pages as their checked
	// rows arrived.
	deliveries []delivery
}

// delivery is one page of checked rows and when it arrived.
type delivery struct {
	at   time.Time
	rows int
}

// scenario is one request class of a workload mix.
type scenario struct {
	name   string
	weight float64
	kind   kind
	run    func(ctx context.Context, r *rand.Rand, out *outcome) error
}

// sample is one completed request. For open loops due is the planned
// send time and latency runs from it, so a stall also charges the
// requests queued behind it; for closed loops due == start.
type sample struct {
	class      string
	kind       kind
	due        time.Time
	enqueued   time.Time // open loop: when the dispatcher queued it
	start, end time.Time
	err        error
	out        outcome
}

func (s *sample) latency() time.Duration   { return s.end.Sub(s.due) }
func (s *sample) service() time.Duration   { return s.end.Sub(s.start) }
func (s *sample) sendLag() time.Duration   { return s.enqueued.Sub(s.due) }
func (s *sample) queueWait() time.Duration { return s.start.Sub(s.enqueued) }

// checkError marks a wrong answer: it counts as a failure, never as a
// latency sample.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// requestTimeout bounds one request (or one session of requests).
const requestTimeout = 60 * time.Second

// execute runs one request and times it.
func execute(ctx context.Context, sc *scenario, seed int64, due, enqueued time.Time) sample {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	s := sample{class: sc.name, kind: sc.kind, due: due, enqueued: enqueued, start: time.Now()}
	s.err = sc.run(rctx, rand.New(rand.NewSource(seed)), &s.out)
	s.end = time.Now()
	return s
}

// openLoop offers arrivals at a fixed rate regardless of replies. Arrivals queue for one of `workers` senders,
// each owning one connection, so the generator never opens more
// connections than it has workers.
type openLoop struct {
	rate    float64
	dur     time.Duration
	seed    int64
	workers int
	mix     []scenario
	// stop, when closed, ends the arrivals early; queued requests
	// still run to completion.
	stop <-chan struct{}
}

// loopResult is one loop's raw outcome.
type loopResult struct {
	samples []sample
	backlog int           // arrivals still queued when the window closed
	start   time.Time     // when the arrival window opened
	window  time.Duration // the arrival window
}

func (o openLoop) run(ctx context.Context) (*loopResult, error) {
	classes := make([]loadgen.Scenario, len(o.mix))
	for i, sc := range o.mix {
		classes[i] = loadgen.Scenario{Name: sc.name, Weight: sc.weight}
	}
	cum, err := loadgen.NormalizeWeights(classes)
	if err != nil {
		return nil, err
	}
	master := rand.New(rand.NewSource(o.seed))
	type job struct {
		sc            *scenario
		seed          int64
		due, enqueued time.Time
	}
	// The arrival times are a Poisson process conditioned on its count:
	// rate×dur uniform instants, sorted. Every seed then offers the
	// same number of requests, so throughput figures do not carry the
	// count's sampling noise; stop can still end the arrivals early.
	n := int(o.rate*o.dur.Seconds() + 0.5)
	// The queue holds every arrival, so a slow target shows as queue
	// wait and backlog, never as a blocked dispatcher.
	jobs := make(chan job, n)
	perWorker := make([][]sample, o.workers)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				perWorker[w] = append(perWorker[w], execute(ctx, j.sc, j.seed, j.due, j.enqueued))
			}
		}(w)
	}

	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = master.Float64() * float64(o.dur)
	}
	sort.Float64s(offsets)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	res := &loopResult{start: start}
	for _, off := range offsets {
		if ctx.Err() != nil || closed(o.stop) {
			break
		}
		next := start.Add(time.Duration(off))
		sc := &o.mix[pick(cum, master.Float64())]
		seed := master.Int63()
		if d := time.Until(next); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				continue
			case <-o.stop:
				continue
			}
		}
		jobs <- job{sc: sc, seed: seed, due: next, enqueued: time.Now()}
	}
	res.window = o.dur
	if ctx.Err() != nil || closed(o.stop) {
		res.window = time.Since(start)
	}
	res.backlog = len(jobs)
	close(jobs)
	wg.Wait()
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	return res, ctx.Err()
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// closedLoop runs one caller that issues its next request when the
// previous one returns, until dur has passed.
func closedLoop(ctx context.Context, dur time.Duration, seed int64, next func(i int) *scenario) []sample {
	master := rand.New(rand.NewSource(seed))
	var out []sample
	deadline := time.Now().Add(dur)
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		sc := next(i)
		now := time.Now()
		out = append(out, execute(ctx, sc, master.Int63(), now, now))
	}
	return out
}

// pick is the scenario index a uniform draw u selects from the
// cumulative shares loadgen.NormalizeWeights returns.
func pick(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// --- statistics ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median averages the middle pair of an even-length set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// maxWindows bounds how many consecutive windows a phase's samples are
// split into for the windowed statistics.
const maxWindows = 10

// windowed splits time-ordered values into consecutive windows of at
// least minPer values (at most maxWindows of them), applies stat to
// each and reports the median over the windows. A short burst of
// interference on the host then moves one window, not the figure.
func windowed(xs []float64, minPer int, stat func([]float64) float64) float64 {
	return median(perWindow(xs, minPer, stat))
}

// perWindow is the per-window values windowed takes the median of.
func perWindow(xs []float64, minPer int, stat func([]float64) float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	k := min(max(len(xs)/minPer, 1), maxWindows)
	var per []float64
	for i := 0; i < k; i++ {
		per = append(per, stat(append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)))
	}
	return per
}

// tailQuantile is the highest of the usual percentiles that leaves at
// least ten samples beyond it, capped at want.
func tailQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5} {
		if q <= want && float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}
