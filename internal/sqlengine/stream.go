package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// errStalePlan signals that a compiled plan's schema epoch no longer
// matches the catalog; the stream falls back to a materialised replay.
var errStalePlan = errors.New("sqlengine: compiled plan is stale")

// RowStream is a pull-based iterator over the rows of one SELECT
// execution: the engine half of the streaming delivery pipeline. Rows
// are produced by a goroutine that holds the statement's read locks for
// the duration of production and flow through a bounded channel, so a
// consumer that falls behind applies backpressure to the scan instead
// of forcing the whole result into memory.
//
// A RowStream must be drained (Next until io.EOF) or Closed; otherwise
// the producer goroutine and the session's shared locks leak. The
// owning Session must not execute further statements until the stream
// has finished.
type RowStream struct {
	cols      []ResultColumn
	streaming bool

	// Streaming path.
	ch     chan []Value
	cancel context.CancelFunc
	done   chan struct{}
	res    *Result
	err    error

	// Materialised fallback path.
	rows [][]Value
	pos  int

	closeOnce sync.Once
}

// streamBufferRows is the capacity of the producer/consumer channel:
// deep enough to decouple scan bursts from consumer scheduling, small
// enough that an abandoned consumer strands little work.
const streamBufferRows = 64

// Columns returns the result column metadata, known before the first
// row is produced.
func (r *RowStream) Columns() []ResultColumn { return r.cols }

// Streaming reports whether rows are produced incrementally; false
// means the statement was not streamable and the result was
// materialised up front (the stream then just replays it).
func (r *RowStream) Streaming() bool { return r.streaming }

// Next returns the next row, or io.EOF after the last one. A
// production error (cancellation, per-row evaluation failure) is
// returned in place of io.EOF once the produced prefix is exhausted.
func (r *RowStream) Next() ([]Value, error) {
	if !r.streaming {
		if r.pos >= len(r.rows) {
			return nil, io.EOF
		}
		row := r.rows[r.pos]
		r.pos++
		return row, nil
	}
	row, ok := <-r.ch
	if ok {
		return row, nil
	}
	<-r.done
	if r.err != nil {
		return nil, r.err
	}
	return nil, io.EOF
}

// Result blocks until production has finished and returns the
// statement outcome — the SQL communication area with the final
// RowsFetched count, exactly as the materialised Execute would have
// reported it.
func (r *RowStream) Result() (*Result, error) {
	if !r.streaming {
		return r.res, r.err
	}
	<-r.done
	return r.res, r.err
}

// Close abandons the stream: the producer is cancelled, its locks are
// released, and any undelivered rows are discarded. Safe to call more
// than once and after io.EOF.
func (r *RowStream) Close() error {
	r.closeOnce.Do(func() {
		if !r.streaming {
			r.pos = len(r.rows)
			return
		}
		r.cancel()
		// Drain so a producer blocked on send can observe cancellation
		// and run its unlock epilogue.
		for range r.ch {
		}
		<-r.done
	})
	return nil
}

// ExecuteStream parses and runs one statement, delivering query rows
// incrementally. A compiled SELECT plan with no joins and no ORDER BY
// beyond what its access path already yields, outside an explicit
// transaction, streams row by row while the scan is still running;
// everything else executes exactly as ExecuteContext and is replayed
// from the materialised result, so callers see one uniform interface.
// ctx governs production, not just setup: cancelling it aborts the
// scan with a *CancelledError.
func (s *Session) ExecuteStream(ctx context.Context, sql string, params ...Value) (*RowStream, error) {
	prep, err := s.engine.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.streamPrepared(ctx, prep, params)
}

// streamPrepared is ExecuteStream for a statement already prepared. A
// plan gone stale under DDL since Prepare replays like an unplanned
// statement.
func (s *Session) streamPrepared(ctx context.Context, prep *Prepared, params []Value) (*RowStream, error) {
	if err := prep.checkParams(params); err != nil {
		return nil, err
	}
	if !disablePlanner && prep.plan != nil && prep.plan.streamable() && !s.inTxn && !s.aborted {
		rs, err := s.startPlanStream(ctx, prep.plan, params)
		if !errors.Is(err, errStalePlan) {
			return rs, err
		}
	}
	res, err := s.ExecutePrepared(ctx, prep, params...)
	if err != nil {
		return nil, err
	}
	rs := &RowStream{res: res}
	if res.Set != nil {
		rs.cols = res.Set.Columns
		rs.rows = res.Set.Rows
	}
	return rs, nil
}

// startPlanStream binds the statement synchronously — so lock timeouts,
// a stale plan and bad OFFSET/LIMIT expressions surface to the caller,
// not mid-stream — and spawns the producer goroutine, which holds the
// session's read locks and the database read latch until every row is
// delivered or the stream is cancelled. errStalePlan sends the caller
// to the materialised replay.
func (s *Session) startPlanStream(ctx context.Context, p *selectPlan, params []Value) (*RowStream, error) {
	db := s.engine.db
	if err := s.lockForRead(tablesOfSelect(p.sel)); err != nil {
		s.engine.locks.releaseAll(s)
		return nil, err
	}
	prodCtx, cancel := context.WithCancel(ctx)

	db.mu.RLock()
	fail := func(err error) (*RowStream, error) {
		db.mu.RUnlock()
		s.engine.locks.releaseAll(s)
		cancel()
		return nil, err
	}
	if p.epoch != db.epoch {
		return fail(errStalePlan)
	}
	env := &evalEnv{cols: p.cols, params: params, db: db, ctx: prodCtx}
	// LIMIT/OFFSET are row-independent expressions: evaluate once up
	// front so the producer can stop early and skip cheaply.
	offset, limit := 0, -1
	var err error
	if p.sel.Offset != nil {
		if offset, err = evalCount(p.sel.Offset, env); err != nil {
			return fail(fmt.Errorf("OFFSET: %w", err))
		}
	}
	if p.sel.Limit != nil {
		if limit, err = evalCount(p.sel.Limit, env); err != nil {
			return fail(fmt.Errorf("LIMIT: %w", err))
		}
	}

	rs := &RowStream{
		cols:      p.projCols,
		streaming: true,
		ch:        make(chan []Value, streamBufferRows),
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go s.streamPlan(rs, p, env, offset, limit)
	return rs, nil
}

// errLimitReached stops a stream's scan once LIMIT rows are out.
var errLimitReached = errors.New("sqlengine: stream limit reached")

// streamPlan is the stream producer: the plan's rows, projected and
// emitted through the bounded channel after OFFSET skipping, stopping
// as soon as LIMIT rows are out. Skipped rows are still projected, as
// the materialised path projects every row, so per-row evaluation
// errors surface for the same inputs. It runs the implicit auto-commit
// epilogue when done.
func (s *Session) streamPlan(rs *RowStream, p *selectPlan, env *evalEnv, offset, limit int) {
	db := s.engine.db
	emitted := 0
	var err error
	if limit != 0 {
		slab := newRowSlab(len(p.projExprs))
		err = p.eachRow(env, true, func(ch *colChunk, i int) error {
			vals := slab.next()
			if err := p.project(env, ch, i, vals); err != nil {
				return err
			}
			if offset > 0 {
				offset--
				return nil
			}
			select {
			case rs.ch <- vals:
			case <-env.ctx.Done():
				return &CancelledError{Err: env.ctx.Err()}
			}
			if emitted++; emitted == limit {
				return errLimitReached
			}
			return nil
		})
	}
	db.mu.RUnlock()
	// Implicit auto-commit epilogue: a SELECT has no undo log, so
	// success and failure both reduce to releasing the read locks.
	s.undo = nil
	s.engine.locks.releaseAll(s)
	if err != nil && !errors.Is(err, errLimitReached) {
		rs.res, rs.err = errResult(stateFor(err), err), err
	} else {
		rs.res = queryResult(nil, emitted)
	}
	close(rs.ch)
	close(rs.done)
}
