package main

import (
	"math"
	"sort"
	"time"
)

// Other guests of the hypervisor, and any other process on the host,
// take CPU time from the benchmark in bursts that last from a fraction
// of a second to minutes; every process here slows at once while they
// do. A measured phase is therefore cut into slots of slotDur, and each
// slot records the share of the host's CPU time that went to something
// other than the benchmark's own processes: steal by other guests plus
// busy time of foreign processes. The time-based figures come from the
// quiet slots (on analytic-rw, from each statement class's quiet reads):
// every slot within quietLimit, and never fewer than the quietest
// minKeep of them. A burst of interference then moves few samples, and
// the figures do not follow how much of a run it covered. A slower
// program is slower in every slot, quiet ones included.
const (
	slotDur    = 250 * time.Millisecond
	quietLimit = 0.02 // one clock tick in a slot of a two-CPU host
	minKeep    = 0.25
)

// keepShare is the share of units (slots or reads) to keep, quietest
// first, given the foreign share each lost.
func keepShare(shares []float64) float64 {
	quiet := 0
	for _, s := range shares {
		if s <= quietLimit {
			quiet++
		}
	}
	return max(minKeep, float64(quiet)/float64(max(len(shares), 1)))
}

// keepCount is how many of n units a share k keeps.
func keepCount(k float64, n int) int { return min(n, int(math.Ceil(k*float64(n)))) }

// slot is one sampling interval of a measured phase.
type slot struct {
	start, end time.Time
	foreign    float64 // share of the host's CPU time, 0..1
}

// cpuSample is one reading of the host's and the benchmark's CPU time.
type cpuSample struct {
	at          time.Time
	busy, total uint64 // host clock ticks, steal included in busy
	own         time.Duration
}

// interference samples the host every slotDur until finish is called.
type interference struct {
	pids  []int
	stop  chan struct{}
	done  chan struct{}
	slots []slot
}

// watchInterference starts sampling; pids are the benchmark's own
// processes (the generator and every system-under-test process).
func watchInterference(pids []int) *interference {
	w := &interference{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		prev, ok := w.read()
		tick := time.NewTicker(slotDur)
		defer tick.Stop()
		for stopped := false; !stopped; {
			select {
			case <-w.stop:
				stopped = true
			case <-tick.C:
			}
			cur, cok := w.read()
			if ok && cok && cur.total > prev.total {
				own := (cur.own - prev.own).Seconds() * clockTicks
				foreign := (float64(cur.busy-prev.busy) - own) / float64(cur.total-prev.total)
				w.slots = append(w.slots, slot{prev.at, cur.at, min(max(foreign, 0), 1)})
			}
			prev, ok = cur, cok
		}
	}()
	return w
}

// read takes one sample; a process that has exited reads as an error.
func (w *interference) read() (cpuSample, bool) {
	s := cpuSample{at: time.Now()}
	host, err := readHostCPU()
	if err != nil {
		return s, false
	}
	s.busy, s.total = host.busy, host.total
	for _, pid := range w.pids {
		t, err := cpuTime(pid)
		if err != nil {
			return s, false
		}
		s.own += t
	}
	return s, true
}

// finish stops sampling and returns the slots, the last one cut short
// at the moment of the call so that the slots cover the whole phase.
func (w *interference) finish() []slot {
	close(w.stop)
	<-w.done
	return w.slots
}

// quietSet is a phase's slots with the quiet ones kept.
type quietSet struct {
	slots []slot
	keep  []bool
}

func quietest(slots []slot) quietSet {
	q := quietSet{slots: slots, keep: make([]bool, len(slots))}
	order := make([]int, len(slots))
	shares := make([]float64, len(slots))
	for i := range order {
		order[i], shares[i] = i, slots[i].foreign
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	for _, i := range order[:keepCount(keepShare(shares), len(slots))] {
		q.keep[i] = true
	}
	return q
}

// covers reports whether [a, b] lies within kept slots.
func (q quietSet) covers(a, b time.Time) bool {
	i := sort.Search(len(q.slots), func(i int) bool { return !q.slots[i].end.Before(a) })
	if i == len(q.slots) || a.Before(q.slots[i].start) {
		return false
	}
	for ; i < len(q.slots) && q.keep[i]; i++ {
		if !q.slots[i].end.Before(b) {
			return true
		}
	}
	return false
}

// seconds is the kept slots' total length.
func (q quietSet) seconds() float64 {
	var t float64
	for i, s := range q.slots {
		if q.keep[i] {
			t += s.end.Sub(s.start).Seconds()
		}
	}
	return t
}

// share is the time-weighted foreign share over [a, b].
func (q quietSet) share(a, b time.Time) float64 {
	var w, t float64
	for _, s := range q.slots {
		lo, hi := s.start, s.end
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if d := hi.Sub(lo).Seconds(); d > 0 {
			w += d * s.foreign
			t += d
		}
	}
	if t == 0 {
		return 0
	}
	return w / t
}

// mean is the average foreign share over all slots, or the kept ones.
func (q quietSet) mean(keptOnly bool) float64 {
	var w, t float64
	for i, s := range q.slots {
		if keptOnly && !q.keep[i] {
			continue
		}
		d := s.end.Sub(s.start).Seconds()
		w += d * s.foreign
		t += d
	}
	if t == 0 {
		return 0
	}
	return w / t
}
