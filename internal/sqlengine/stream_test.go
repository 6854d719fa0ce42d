package sqlengine

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"
)

func streamEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New("streamdb")
	e.MustExec(`CREATE TABLE items (id INTEGER PRIMARY KEY, label VARCHAR(32), num DOUBLE)`)
	for i := 0; i < rows; i += 100 {
		stmt := "INSERT INTO items VALUES "
		for j := i; j < i+100 && j < rows; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'label-%04d', %g)", j, j, float64(j)/3)
		}
		e.MustExec(stmt)
	}
	return e
}

func drain(t *testing.T, rs *RowStream) [][]Value {
	t.Helper()
	var rows [][]Value
	for {
		row, err := rs.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		rows = append(rows, row)
	}
}

// TestExecuteStreamMatchesExecute checks streamed rows, columns and the
// communication area against the materialised path for a spread of
// statements — both ones the producer streams and ones that fall back.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	e := streamEngine(t, 500)
	cases := []struct {
		name      string
		sql       string
		params    []Value
		streaming bool
	}{
		{"full scan", `SELECT id, label, num FROM items`, nil, true},
		{"star", `SELECT * FROM items`, nil, true},
		{"filtered", `SELECT id FROM items WHERE num > ?`, []Value{NewDouble(100)}, true},
		{"limit offset", `SELECT id FROM items LIMIT 10 OFFSET 25`, nil, true},
		{"empty result", `SELECT id FROM items WHERE id < 0`, nil, true},
		{"expression projection", `SELECT id * 2, label FROM items WHERE id < 20`, nil, true},
		{"order by falls back", `SELECT id FROM items ORDER BY id DESC LIMIT 5`, nil, false},
		{"aggregate falls back", `SELECT COUNT(*) FROM items`, nil, false},
		{"distinct falls back", `SELECT DISTINCT label FROM items WHERE id < 3`, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := e.NewSession().Execute(tc.sql, tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := e.NewSession().ExecuteStream(context.Background(), tc.sql, tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			if stream.Streaming() != tc.streaming {
				t.Fatalf("Streaming() = %v, want %v", stream.Streaming(), tc.streaming)
			}
			gotRows := drain(t, stream)
			res, err := stream.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotRows) != len(want.Set.Rows) {
				t.Fatalf("rows = %d, want %d", len(gotRows), len(want.Set.Rows))
			}
			if len(stream.Columns()) != len(want.Set.Columns) {
				t.Fatalf("columns = %d, want %d", len(stream.Columns()), len(want.Set.Columns))
			}
			for i, c := range stream.Columns() {
				if c != want.Set.Columns[i] {
					t.Fatalf("column %d = %+v, want %+v", i, c, want.Set.Columns[i])
				}
			}
			for i := range gotRows {
				for j := range gotRows[i] {
					if gotRows[i][j].String() != want.Set.Rows[i][j].String() {
						t.Fatalf("row %d col %d = %v, want %v", i, j, gotRows[i][j], want.Set.Rows[i][j])
					}
				}
			}
			if res.CA != want.CA {
				t.Fatalf("CA = %+v, want %+v", res.CA, want.CA)
			}
		})
	}
}

func TestExecuteStreamSetupErrors(t *testing.T) {
	e := streamEngine(t, 10)
	for _, sql := range []string{
		`SELECT id FROM missing`,
		`SELECT id FROM items LIMIT 'abc'`,
	} {
		if _, err := e.NewSession().ExecuteStream(context.Background(), sql); err == nil {
			t.Fatalf("%s: expected setup error", sql)
		}
	}
	// Unknown columns bind lazily: the stream opens, the error surfaces
	// on the first row — and the producer still releases its locks.
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT nosuch FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Streaming() {
		t.Fatal("an unknown column must not keep the statement off the plan stream")
	}
	if _, err := stream.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next = %v, want eval error", err)
	}
	// Setup errors must not leave locks behind: a write must proceed.
	done := make(chan error, 1)
	go func() {
		_, err := e.NewSession().Execute(`INSERT INTO items VALUES (1000, 'x', 1)`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked: stream setup leaked locks")
	}
}

func TestExecuteStreamCancel(t *testing.T) {
	e := streamEngine(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := e.NewSession().ExecuteStream(ctx, `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Drain until the cancellation surfaces.
	var lastErr error
	for {
		_, err := stream.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == io.EOF {
		t.Fatal("expected cancellation error, got clean EOF")
	}
	var ce *CancelledError
	if !asCancelled(lastErr, &ce) {
		t.Fatalf("err = %v, want CancelledError", lastErr)
	}
	// Locks must be released after the producer dies.
	if _, err := e.NewSession().Execute(`INSERT INTO items VALUES (9999, 'y', 2)`); err != nil {
		t.Fatal(err)
	}
}

func asCancelled(err error, target **CancelledError) bool {
	for err != nil {
		if ce, ok := err.(*CancelledError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestExecuteStreamCloseReleasesLocks(t *testing.T) {
	e := streamEngine(t, 2000)
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := e.NewSession().Execute(`UPDATE items SET num = 0 WHERE id = 5`); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteStreamBackpressure(t *testing.T) {
	// A consumer that never drains must not force the producer to
	// materialise: production stalls at the channel depth.
	e := streamEngine(t, 10000)
	stream, err := e.NewSession().ExecuteStream(context.Background(), `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-stream.done:
		// The producer raced through 10k rows into a 64-slot channel
		// with nobody receiving, which cannot happen.
		t.Fatal("producer finished without a consumer: no backpressure")
	default:
	}
}

func TestExecuteStreamInsideTxnFallsBack(t *testing.T) {
	e := streamEngine(t, 50)
	s := e.NewSession()
	if _, err := s.Execute(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	stream, err := s.ExecuteStream(context.Background(), `SELECT id FROM items WHERE id < 5`)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Streaming() {
		t.Fatal("streams must not run inside explicit transactions")
	}
	if got := len(drain(t, stream)); got != 5 {
		t.Fatalf("rows = %d", got)
	}
	if _, err := s.Execute(`COMMIT`); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteStreamStalePlanReplays prepares a plan, moves the schema
// epoch under it with CREATE INDEX, then streams the stale plan: the
// statement must replay from a fresh materialised execution with the
// same rows a new Execute returns.
func TestExecuteStreamStalePlanReplays(t *testing.T) {
	e := streamEngine(t, 300)
	const sql = `SELECT id, label FROM items WHERE num > 50`
	prep, err := e.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Planned() {
		t.Fatal("statement did not plan")
	}
	e.MustExec(`CREATE ORDERED INDEX items_num ON items (num)`)
	s := e.NewSession()
	stream, err := s.streamPrepared(context.Background(), prep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Streaming() {
		t.Fatal("a stale plan must replay, not stream")
	}
	got := drain(t, stream)
	want, err := e.NewSession().Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if gd, wd := dumpSet(&ResultSet{Columns: stream.Columns(), Rows: got}), dumpSet(want.Set); gd != wd {
		t.Fatalf("replayed rows diverged:\n%s\nwant:\n%s", gd, wd)
	}
	res, err := stream.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.CA != want.CA {
		t.Fatalf("CA = %+v, want %+v", res.CA, want.CA)
	}
}
