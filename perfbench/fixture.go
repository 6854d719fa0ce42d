package main

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"dais/internal/client"
	"dais/internal/sqlengine"
)

// The seeded emp table daisd builds (cmd/daisd seedRelational): row i
// of -seed-rows has these values. Answer checks recompute them.
func empName(i int) string {
	s := strconv.Itoa(i)
	if len(s) < 4 {
		s = strings.Repeat("0", 4-len(s)) + s
	}
	return "employee-" + s
}
func empDept(i int) int64     { return int64(i%4 + 1) }
func empSalary(i int) float64 { return 50000 + float64((i*937)%90000) }

var deptNames = []string{"eng", "sales", "legal", "ops"}

func deptName(id int64) string { return deptNames[id-1] }

// The XML collection daisd seeds: book titles and prices.
var books = []struct {
	title string
	price int
}{
	{"Principles of Distributed Database Systems", 85},
	{"The Grid", 60},
	{"Transaction Processing", 110},
}

// bench binds one client (and, in traced runs, the tracer) to the
// scenario code. Every client method is called through b.call so the
// traced run can time it.
type bench struct {
	cl    *client.Client
	tr    *tracer
	pages *pageTimer
}

func (b *bench) call(ctx context.Context, method string, fn func(context.Context) error) error {
	return b.tr.do(ctx, "client."+method, fn)
}

// check runs an answer check, timed as the benchmark's own work.
func (b *bench) check(ctx context.Context, fn func() error) error {
	return b.tr.do(ctx, "check", func(context.Context) error { return fn() })
}

// traced wraps a mix so each request opens a root span.
func (b *bench) traced(mix []scenario) []scenario {
	if b.tr == nil {
		return mix
	}
	out := make([]scenario, len(mix))
	for i, sc := range mix {
		sc := sc
		run := sc.run
		sc.run = func(ctx context.Context, r *rand.Rand, o *outcome) error {
			ctx, s := b.tr.root(ctx, sc.name)
			err := run(ctx, r, o)
			b.tr.close(s)
			return err
		}
		out[i] = sc
	}
	return out
}

func (b *bench) exec(ctx context.Context, ref client.ResourceRef, sql string, params ...sqlengine.Value) (*client.SQLResult, error) {
	var res *client.SQLResult
	err := b.call(ctx, "SQLExecute", func(ctx context.Context) error {
		var err error
		res, err = b.cl.SQLExecute(ctx, ref, sql, params, "")
		return err
	})
	return res, err
}

// mustUpdate runs a DML statement and checks its update count.
func (b *bench) mustUpdate(ctx context.Context, ref client.ResourceRef, want int, sql string, params ...sqlengine.Value) error {
	res, err := b.exec(ctx, ref, sql, params...)
	if err != nil {
		return err
	}
	return b.check(ctx, func() error {
		if res.UpdateCount != want {
			return checkf("%q: update count %d, want %d", sql, res.UpdateCount, want)
		}
		return nil
	})
}

// query runs a direct SELECT and returns its decoded rows.
func (b *bench) query(ctx context.Context, ref client.ResourceRef, sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	res, err := b.exec(ctx, ref, sql, params...)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, checkf("%q: no rowset in reply", sql)
	}
	return res.Set, nil
}

// indirect runs the WS-DAIR indirect pattern as one session:
// SQLExecuteFactory → SQLRowsetFactory → GetTuples → destroy both
// derived resources. It reports the time from the factory call to the
// first page.
func (b *bench) indirect(ctx context.Context, ref client.ResourceRef, sql string, pageRows int, o *outcome) (*sqlengine.ResultSet, error) {
	t0 := time.Now()
	var respRef, rsRef client.ResourceRef
	err := b.call(ctx, "SQLExecuteFactory", func(ctx context.Context) error {
		var err error
		respRef, err = b.cl.SQLExecuteFactory(ctx, ref, sql, nil, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer b.destroy(ctx, respRef)
	err = b.call(ctx, "SQLRowsetFactory", func(ctx context.Context) error {
		var err error
		rsRef, err = b.cl.SQLRowsetFactory(ctx, respRef, "", 0, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer b.destroy(ctx, rsRef)
	var set *sqlengine.ResultSet
	err = b.call(ctx, "GetTuplesSet", func(ctx context.Context) error {
		var err error
		set, err = b.cl.GetTuplesSet(ctx, rsRef, 1, pageRows)
		return err
	})
	o.indirect, o.firstPage = true, time.Since(t0)
	return set, err
}

// destroy removes a derived resource. A failed destroy leaks it, which
// the end-of-run hygiene check (live resources back to the start
// count) reports.
func (b *bench) destroy(ctx context.Context, ref client.ResourceRef) {
	b.call(ctx, "DestroyDataResource", func(ctx context.Context) error { //nolint:errcheck // see above
		return b.cl.DestroyDataResource(ctx, ref)
	})
}

// checkEmpRows checks rows of (id, name[, dept_id][, salary]) against
// the seed formula: ids exactly lo..hi, each once, in any order.
func checkEmpRows(set *sqlengine.ResultSet, lo, hi int, cols string) error {
	if len(set.Rows) != hi-lo+1 {
		return checkf("got %d rows for ids %d..%d", len(set.Rows), lo, hi)
	}
	seen := make(map[int64]bool, len(set.Rows))
	for _, row := range set.Rows {
		if len(row) != len(cols) {
			return checkf("row has %d columns, want %d", len(row), len(cols))
		}
		id := int(row[0].I)
		if id < lo || id > hi || seen[int64(id)] {
			return checkf("unexpected or repeated id %d", id)
		}
		seen[int64(id)] = true
		if err := checkEmpCols(row, id, cols); err != nil {
			return err
		}
	}
	return nil
}

// checkEmpCols checks one row's columns, described by cols: i = id,
// n = name, d = dept_id, s = salary.
func checkEmpCols(row []sqlengine.Value, id int, cols string) error {
	for c, kind := range cols {
		v := row[c]
		ok := true
		switch kind {
		case 'i':
			ok = v.I == int64(id)
		case 'n':
			ok = v.S == empName(id)
		case 'd':
			ok = v.I == empDept(id)
		case 's':
			ok = v.F == empSalary(id)
		}
		if !ok {
			return checkf("id %d column %d: got %v", id, c, v)
		}
	}
	return nil
}

// expectTitles lists the seeded book titles priced above p, sorted.
func expectTitles(p int) []string {
	var out []string
	for _, b := range books {
		if b.price > p {
			out = append(out, b.title)
		}
	}
	sort.Strings(out)
	return out
}

func sameStrings(got, want []string) bool {
	g := append([]string(nil), got...)
	sort.Strings(g)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}
