package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dais/internal/soap"
)

// tracer records spans at the boundaries the benchmark can see from its
// own code: the request (root), each client.Client method, the SOAP
// exchange (an innermost client soap.Interceptor) and the HTTP round
// trip (a wrapping http.RoundTripper, timed to the last body byte).
// Spans stay in memory until the run ends. A nil *tracer records
// nothing, which is the untraced configuration.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span

	capMu    sync.Mutex
	captured []*soap.Envelope // response envelopes kept for the soap replays
	seen     int
}

// span is one timed interval. Spans of one request share its request
// ID, which also rides the SOAP RequestID header to the server.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"` // 0 for the request root
	Name      string `json:"name"`
	RequestID string `json:"request_id"`
	Start     int64  `json:"start_ns"` // since the tracer's epoch
	End       int64  `json:"end_ns"`
}

type spanCtxKey struct{}

type spanRef struct {
	id  int64
	req string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span under the one carried by ctx.
func (t *tracer) open(ctx context.Context, name string) (context.Context, *span) {
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	s := &span{ID: t.ids.Add(1), Parent: parent.id, Name: name, RequestID: parent.req,
		Start: int64(time.Since(t.epoch))}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: s.ID, req: s.RequestID}), s
}

func (t *tracer) close(s *span) {
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// root opens a request's root span and gives the request one ID, so
// every SOAP call it makes carries the same RequestID.
func (t *tracer) root(ctx context.Context, class string) (context.Context, *span) {
	id := fmt.Sprintf("bench-%d", t.reqs.Add(1))
	ctx = soap.WithRequestID(context.WithValue(ctx, spanCtxKey{}, spanRef{req: id}), id)
	return t.open(ctx, "request."+class)
}

// do runs fn inside a span; with a nil tracer it just runs fn.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	ctx, s := t.open(ctx, name)
	err := fn(ctx)
	t.close(s)
	return err
}

// reset drops spans and captured envelopes (the warm-up's), keeping
// only the measured phase's.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.capMu.Lock()
	t.captured, t.seen = nil, 0
	t.capMu.Unlock()
}

// dump writes the spans out, one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exchange is the innermost client interceptor: it times the SOAP
// exchange (marshal, HTTP, envelope parse) and keeps a sample of
// response envelopes for the parse and marshal replays.
func (t *tracer) exchange() soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		ctx, s := t.open(ctx, "soap.exchange")
		resp, err := next(ctx, action, env)
		t.close(s)
		if resp != nil && err == nil {
			t.capture(resp)
		}
		return resp, err
	}
}

// maxCaptured bounds the envelopes kept for replay; every 8th response
// is kept so the sample follows the workload's mix of operations.
const maxCaptured = 128

func (t *tracer) capture(env *soap.Envelope) {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	t.seen++
	if t.seen%8 == 1 && len(t.captured) < maxCaptured {
		t.captured = append(t.captured, env)
	}
}

// transport wraps an http.RoundTripper with the http.roundtrip span.
func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		_, s := t.open(req.Context(), "http.roundtrip")
		resp, err := next.RoundTrip(req)
		if err != nil {
			t.close(s)
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.close(s) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody ends the round-trip span at the last body byte (or at
// Close, if the body is abandoned).
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// layerTimes is the attribution of the traced requests' time: span
// counts, summed durations and summed self time per layer, all in
// microseconds.
type layerTimes struct {
	spans, requests, calls, exchanges int
	requestSum, callSum, roundtripSum float64
	self                              map[string]float64
}

// layerOf maps a span name to the layer its self time is charged to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "client"
	case name == "soap.exchange":
		return "soap"
	case name == "http.roundtrip":
		return "http"
	case name == "check":
		return "check"
	}
	return "unattributed" // the request root: the benchmark's code between calls
}

// attribute computes each span's self time — its duration minus the
// part of it its children cover — and sums it per layer.
func (t *tracer) attribute() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	lt := layerTimes{spans: len(spans), self: map[string]float64{}}
	for _, s := range spans {
		dur := float64(s.End-s.Start) / 1e3
		layer := layerOf(s.Name)
		switch {
		case s.Parent == 0:
			lt.requests++
			lt.requestSum += dur
		case layer == "client":
			lt.calls++
			lt.callSum += dur
		case layer == "http":
			lt.exchanges++
			lt.roundtripSum += dur
		}
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		lt.self[layer] += dur - float64(covered(iv))/1e3
	}
	return lt
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
