package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dais/internal/client"
	"dais/internal/soap"
	"dais/internal/sqlengine"
)

// The bulk query returns exactly bulkRows rows: daisd is seeded with
// bulkRows+offset rows and the query skips the first offset, with the
// offset drawn from the seed.
func bulkQuery(offset int) string {
	return fmt.Sprintf(`SELECT id, name, dept_id, salary FROM emp WHERE id > %d`, offset)
}

func launchBulk(ctx context.Context, e *env, b *bench) (*system, error) {
	offset := rand.New(rand.NewSource(e.seed)).Intn(1000)
	p, err := launchDaisd(ctx, e, "daisd", bulkRows+offset)
	if err != nil {
		return nil, err
	}
	return &system{procs: []*proc{p}, entry: p, daisds: []*proc{p}, sqlRefs: []client.ResourceRef{sqlRef(p)},
		xmlRef: xmlRef(p), seed: e.seed, bulkOffset: offset}, nil
}

// warmBulk fetches the last tenth of the rows once: the same code
// path, a tenth of the work.
func warmBulk(ctx context.Context, e *env, b *bench, sys *system) error {
	return bulkSession(ctx, e, b, sys, sys.bulkOffset+bulkRows-bulkRows/10, bulkRows/10, &outcome{})
}

// bulkSession is one indirect fetch: SQLExecuteFactory →
// SQLRowsetFactory → FetchPages over conns parallel GetTuples windows →
// destroy both derived resources. Every row is checked against the
// seed formula, in order, as its page arrives.
func bulkSession(ctx context.Context, e *env, b *bench, sys *system, after, want int, o *outcome) error {
	ref := sys.sqlRefs[0]
	t0 := time.Now()
	var respRef, rsRef client.ResourceRef
	err := b.call(ctx, "SQLExecuteFactory", func(ctx context.Context) error {
		var err error
		respRef, err = b.cl.SQLExecuteFactory(ctx, ref, bulkQuery(after), nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	defer b.destroy(ctx, respRef)
	err = b.call(ctx, "SQLRowsetFactory", func(ctx context.Context) error {
		var err error
		rsRef, err = b.cl.SQLRowsetFactory(ctx, respRef, "", 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	defer b.destroy(ctx, rsRef)
	next := after + 1
	err = b.call(ctx, "FetchPages", func(ctx context.Context) error {
		return b.cl.FetchPages(ctx, rsRef, client.FetchOptions{Chunks: e.conns}, func(set *sqlengine.ResultSet) error {
			if len(o.deliveries) == 0 {
				o.firstPage = time.Since(t0)
			}
			o.deliveries = append(o.deliveries, delivery{time.Now(), len(set.Rows)})
			return b.check(ctx, func() error {
				for _, row := range set.Rows {
					if len(row) != 4 || row[0].I != int64(next) {
						return checkf("bulk row out of sequence at id %d", next)
					}
					if err := checkEmpCols(row, next, "inds"); err != nil {
						return err
					}
					next++
				}
				return nil
			})
		})
	})
	if err != nil {
		return err
	}
	o.indirect = true
	o.rows = next - after - 1
	if o.rows != want {
		return checkf("bulk fetch delivered %d rows, want %d", o.rows, want)
	}
	return nil
}

// pageTimer is a client interceptor recording GetTuples calls:
// bulk-fetch reports per-page latency as its per-request latency.
type pageTimer struct {
	mu    sync.Mutex
	calls []call
}

// call is one GetTuples call's start and end.
type call struct{ start, end time.Time }

func (p *pageTimer) interceptor() soap.Interceptor {
	return func(ctx context.Context, action string, env *soap.Envelope, next soap.HandlerFunc) (*soap.Envelope, error) {
		t0 := time.Now()
		resp, err := next(ctx, action, env)
		if err == nil && action == getTuplesAction {
			t1 := time.Now()
			p.mu.Lock()
			p.calls = append(p.calls, call{t0, t1})
			p.mu.Unlock()
		}
		return resp, err
	}
}

func (p *pageTimer) take() []call {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = nil
	return out
}

func measureBulk(ctx context.Context, e *env, b *bench, sys *system, dur time.Duration) (*phase, error) {
	ph := &phase{}
	b.pages.take()
	sc := &scenario{name: "bulk-fetch", kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
		return bulkSession(ctx, e, b, sys, sys.bulkOffset, bulkRows, o)
	}}
	sc = &b.traced([]scenario{*sc})[0]
	start := time.Now()
	ph.samples = closedLoop(ctx, dur, e.seed, func(int) *scenario { return sc })
	ph.window = time.Since(start)
	ph.pages = b.pages.take()
	return ph, nil
}
