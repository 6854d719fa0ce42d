package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// summary is the end-to-end reduction of one phase.
type summary struct {
	attempted, failed int
	failures          []string
	p50, tail, tailQ  float64
	p50Windows        []float64
	classes           []string // per-class medians, for the report
	tailN             int
	tailWindows       int
	writeP50          float64
	indirectP50       float64
	firstPage         float64
	queriesPerSec     float64
	rowsPerSec        float64
	sendLagP99        float64
	queueWaitP50      float64
	queueWaitP99      float64
	backlog           int // open loops: arrivals still queued when the window closed
	requests          int
	capacity          *capacityResult
	// foreignAll and foreignKept are the mean share of the host's CPU
	// lost to interference over the phase and over its kept part.
	foreignAll, foreignKept float64
	// readWaitDuringWrite is the median latency of reads that overlap
	// a write minus that of reads that do not (0 without both).
	readWaitDuringWrite float64
}

func summarize(w *workload, ph *phase) *summary {
	s := &summary{}
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].due.Before(ph.samples[j].due) })
	var lat, writeLat, indirect, firstPage, lag, wait []float64
	failuresByMsg := map[string]int{}
	byClass := map[string][]float64{}
	for i := range ph.samples {
		x := &ph.samples[i]
		s.attempted++
		lag = append(lag, ms(x.sendLag()))
		wait = append(wait, ms(x.queueWait()))
		if x.err != nil {
			s.failed++
			failuresByMsg[fmt.Sprintf("%s: %v", x.class, x.err)]++
			continue
		}
		l := ms(x.latency())
		lat = append(lat, l)
		byClass[x.class] = append(byClass[x.class], l)
		if x.kind == kindWrite {
			writeLat = append(writeLat, l)
		}
		if x.out.indirect {
			indirect = append(indirect, l)
			firstPage = append(firstPage, ms(x.out.firstPage))
		}
	}
	s.backlog = ph.backlog
	for class, l := range byClass {
		s.classes = append(s.classes, fmt.Sprintf("%s p50 %.3f ms over %d", class, median(l), len(l)))
	}
	sort.Strings(s.classes)
	for msg, n := range failuresByMsg {
		s.failures = append(s.failures, fmt.Sprintf("%dx %s", n, msg))
	}
	sort.Strings(s.failures)
	s.requests = len(lat)
	s.sendLagP99 = quantile(lag, 0.99)
	s.queueWaitP50 = median(wait)
	s.queueWaitP99 = quantile(wait, 0.99)
	s.writeP50 = windowed(writeLat, 10, median)
	s.indirectP50 = windowed(indirect, 20, median)
	s.firstPage = windowed(firstPage, 20, median)
	s.readWaitDuringWrite = readWaitDuringWrite(ph.samples)
	// The time-based figures come from the quiet part of the phase
	// (see quiet.go); the count-based open-loop rates and the answer
	// checks cover all of it.
	q := quietest(ph.slots)
	s.foreignAll, s.foreignKept = q.mean(false), q.mean(true)
	var perRequest []float64
	switch w.name {
	case "bulk-fetch":
		for _, c := range ph.pages {
			if q.covers(c.start, c.end) {
				perRequest = append(perRequest, ms(c.end.Sub(c.start)))
			}
		}
		var pages, rows int
		for i := range ph.samples {
			for _, d := range ph.samples[i].out.deliveries {
				if q.covers(d.at, d.at) {
					pages++
					rows += d.rows
				}
			}
		}
		s.queriesPerSec = ratio(float64(pages), q.seconds())
		s.rowsPerSec = ratio(float64(rows), q.seconds())
	case "analytic-rw":
		// One closed-loop reader cycling through statement classes
		// whose costs differ a hundredfold. Every class keeps the same
		// share of its reads, the ones that lost least, so the mix
		// stays the same. The rates are over the kept reads' own
		// service times.
		byClass := map[string][]*sample{}
		shareOf := map[*sample]float64{}
		var shares []float64
		for i := range ph.samples {
			if x := &ph.samples[i]; x.kind == kindRead && x.err == nil {
				byClass[x.class] = append(byClass[x.class], x)
				shareOf[x] = q.share(x.start, x.end)
				shares = append(shares, shareOf[x])
			}
		}
		k := keepShare(shares)
		var kept []*sample
		for _, reads := range byClass {
			sort.SliceStable(reads, func(i, j int) bool { return shareOf[reads[i]] < shareOf[reads[j]] })
			kept = append(kept, reads[:keepCount(k, len(reads))]...)
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i].due.Before(kept[j].due) })
		var svc float64
		var rows int
		for _, x := range kept {
			perRequest = append(perRequest, ms(x.latency()))
			svc += ms(x.service())
			rows += x.out.rows
		}
		s.queriesPerSec = ratio(float64(len(kept)), svc/1000)
		s.rowsPerSec = ratio(float64(rows), svc/1000)
	default:
		for i := range ph.samples {
			if x := &ph.samples[i]; x.err == nil && q.covers(x.due, x.end) {
				perRequest = append(perRequest, ms(x.latency()))
			}
		}
		// Open loops offer a fixed number of requests over the window;
		// only the reads done by its end count, so a target that falls
		// behind its arrivals delivers less.
		var done, doneRows int
		end := ph.start.Add(ph.window)
		for i := range ph.samples {
			if x := &ph.samples[i]; x.err == nil && x.kind == kindRead && !x.end.After(end) {
				done++
				doneRows += x.out.rows
			}
		}
		s.queriesPerSec = float64(done) / ph.window.Seconds()
		s.rowsPerSec = float64(doneRows) / ph.window.Seconds()
	}
	s.p50Windows = perWindow(perRequest, w.window, median)
	s.p50 = median(s.p50Windows)
	s.tailN = len(perRequest)
	s.tailQ = tailQuantile(s.tailN, w.tailQ)
	tails := perWindow(perRequest, max(w.window, int(math.Ceil(10/(1-s.tailQ)))),
		func(x []float64) float64 { return quantile(x, s.tailQ) })
	s.tail, s.tailWindows = median(tails), len(tails)
	return s
}

// addEndToEnd emits the end-to-end metrics BENCHMARK.json gates — the
// same set on every workload — and reports the others beside them.
// tail_ms, first_page_ms and indirect_p50_ms swing with the host's CPU
// steal by more than a regression bound can absorb, so they are
// printed but not gated.
func (s *summary) addEndToEnd(res *result, setup, rss float64) {
	success := 0.0
	if s.attempted > 0 {
		success = float64(s.attempted-s.failed) / float64(s.attempted)
	}
	res.add("setup_s", setup, "s")
	res.add("p50_ms", s.p50, "ms")
	res.add("queries_per_s", s.queriesPerSec, "1/s")
	res.add("rows_per_s", s.rowsPerSec, "1/s")
	res.add("success_ratio", success, "ratio")
	res.add("server_rss_mb", rss, "MiB")
	res.note("tail_ms = %.4f ms", s.tail)
	res.note("first_page_ms = %.4f ms", s.firstPage)
	res.note("indirect_p50_ms = %.4f ms", s.indirectP50)
	res.note("tail_ms is p%g over %d samples, the median over %d windows", 100*s.tailQ, s.tailN, s.tailWindows)
	res.note("p50_ms per window %.3f", s.p50Windows)
	for _, c := range s.classes {
		res.note("class %s", c)
	}
	res.note("fail_ratio = %d/%d = %.6f", s.failed, s.attempted, 1-success)
	if s.writeP50 > 0 {
		res.note("write_p50_ms = %.4f ms", s.writeP50)
	}
	if c := s.capacity; c != nil {
		bound := "first failing step found"
		if c.rps == 0 {
			bound = fmt.Sprintf("no step passed: below %.0f", c.start)
		} else if c.generatorBound {
			bound = "stopped: generator fell behind first (steps past this are invalid)"
		} else if len(c.steps) > 0 && c.steps[len(c.steps)-1].Pass {
			bound = "search budget ran out: a lower bound"
		}
		res.note("capacity_rps = %.1f 1/s (p99 limit %.0f ms; %s)", c.rps, ms(capacitySLO), bound)
		steps, _ := json.Marshal(c.steps)
		res.note("capacity steps %s", steps)
	}
	res.note("loadgen: send lag p99 %.3f ms, queue wait p50 %.3f ms, p99 %.3f ms, backlog at window end %d",
		s.sendLagP99, s.queueWaitP50, s.queueWaitP99, s.backlog)
}

// readWaitDuringWrite compares reads overlapping a write with the rest.
func readWaitDuringWrite(samples []sample) float64 {
	var writes [][2]time.Time
	for _, s := range samples {
		if s.kind == kindWrite && s.err == nil {
			writes = append(writes, [2]time.Time{s.start, s.end})
		}
	}
	var during, clear []float64
	for _, s := range samples {
		if s.kind != kindRead || s.err != nil {
			continue
		}
		overlaps := false
		for _, w := range writes {
			if s.start.Before(w[1]) && w[0].Before(s.end) {
				overlaps = true
				break
			}
		}
		if overlaps {
			during = append(during, ms(s.service()))
		} else {
			clear = append(clear, ms(s.service()))
		}
	}
	if len(during) == 0 || len(clear) == 0 {
		return 0
	}
	return median(during) - median(clear)
}
