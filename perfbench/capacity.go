package main

import (
	"context"
	"time"
)

// capacityResult is the outcome of an open-loop workload's capacity
// search.
type capacityResult struct {
	rps            float64 // highest passing offered rate; 0 if none passed
	start          float64 // the first step's offered rate
	steps          []capacityStep
	generatorBound bool // the search stopped because the generator, not the target, fell behind
}

type capacityStep struct {
	Rate     float64 `json:"offered_rps"`
	P99Ms    float64 `json:"p99_ms"`
	Issued   int     `json:"issued"`
	Failed   int     `json:"failed"`
	Backlog  int     `json:"backlog"`
	LagP99Ms float64 `json:"send_lag_p99_ms"`
	Pass     bool    `json:"pass"`
}

// Capacity search: after the measured window, rates climb
// geometrically from capacityStart times the nominal rate in one-second
// steps; the first failing step ends the search. A step passes when
// its p99 latency, timed from the due time, meets capacitySLO.
const (
	capacityStart   = 1.25 // first step, as a multiple of the nominal rate
	capacityGrow    = 1.25 // rate ratio between steps
	capacityStepDur = time.Second
	capacitySteps   = 9
	capacitySLO     = 25 * time.Millisecond
	// maxSendLag is the generator's own lateness (planned send time to
	// queued) beyond which it may be the bottleneck; see generatorBound.
	maxSendLag = 10 * time.Millisecond
)

// generatorBound reports whether the generator fell behind before the
// target did: its send lag p99 is past maxSendLag and larger than the
// p99 wait for a free connection, which is where a saturated target
// shows first.
func generatorBound(lagP99, queueWaitP99 float64) bool {
	return lagP99 > ms(maxSendLag) && lagP99 > queueWaitP99
}

// searchCapacity finds the highest offered rate of mix whose p99
// latency meets capacitySLO with at most 1% failed and no more than 1%
// of the step's arrivals still queued when its arrival window closes.
func searchCapacity(ctx context.Context, e *env, nominal float64, mix []scenario) (*capacityResult, error) {
	res := &capacityResult{start: nominal * capacityStart}
	rate := res.start
	for i := 0; i < capacitySteps; i, rate = i+1, rate*capacityGrow {
		lr, err := openLoop{rate: rate, dur: capacityStepDur, seed: e.seed + int64(len(res.steps)) + 1,
			workers: e.conns, mix: mix}.run(ctx)
		if err != nil {
			return nil, err
		}
		var lat, lag, wait []float64
		failed := 0
		for i := range lr.samples {
			s := &lr.samples[i]
			lag = append(lag, ms(s.sendLag()))
			wait = append(wait, ms(s.queueWait()))
			if s.err != nil {
				failed++
				continue
			}
			lat = append(lat, ms(s.latency()))
		}
		issued := len(lr.samples)
		st := capacityStep{Rate: rate, P99Ms: quantile(lat, 0.99), Issued: issued, Failed: failed,
			Backlog: lr.backlog, LagP99Ms: quantile(lag, 0.99)}
		if generatorBound(st.LagP99Ms, quantile(wait, 0.99)) {
			res.generatorBound = true
			res.steps = append(res.steps, st)
			break
		}
		st.Pass = issued > 0 && st.P99Ms <= ms(capacitySLO) && float64(failed) <= 0.01*float64(issued) &&
			float64(lr.backlog) <= 0.01*float64(issued)
		res.steps = append(res.steps, st)
		if !st.Pass {
			break
		}
		res.rps = rate
	}
	return res, nil
}
