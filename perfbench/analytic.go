package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dais/internal/client"
	"dais/internal/sqlengine"
)

// analyticQuery is one statement of the analytic reader's cycle with
// the answer the seed formula predicts. The writer only flips the
// active flag of existing rows and inserts rows whose dept_id and
// salary are NULL, so no reader predicate or aggregate can see a
// write: every expected answer stays exact while writes run.
type analyticQuery struct {
	class    string
	sql      string
	indirect bool
	want     []string // expected rows, rendered and sorted
}

// analyticQueries draws the reader's statements from the seed. They
// are fixed for the run, so the reader's working set fits the plan
// cache.
func analyticQueries(seed int64, n int) []analyticQuery {
	r := rand.New(rand.NewSource(seed))
	// Thresholds vary in a narrow band around the salary midpoint, so
	// each statement's selectivity, and with it its cost, is about the
	// same for every seed while the answers differ.
	band := func() float64 { return 94000 + float64(r.Intn(2000)) }
	s0, a, d, s1 := band(), 50000+float64(r.Intn(89000)), int64(1+r.Intn(4)), band()
	x, s2, s3 := 1+r.Intn(n-5), band(), band()
	y := 1 + r.Intn(n-5)
	pid := 1 + r.Intn(n)
	type agg struct {
		n   int64
		sum float64
	}
	group := func(pred func(i int) bool) map[int64]*agg {
		out := map[int64]*agg{}
		for i := 1; i <= n; i++ {
			if pred(i) {
				g := out[empDept(i)]
				if g == nil {
					g = &agg{}
					out[empDept(i)] = g
				}
				g.n++
				g.sum += empSalary(i)
			}
		}
		return out
	}
	scan := func(lo float64, dept int64) []string {
		var out []string
		for i := 1; i <= n; i++ {
			if s := empSalary(i); s >= lo && s <= lo+200 && empDept(i) == dept {
				out = append(out, render(int64(i), empName(i), s))
			}
		}
		return out
	}
	var groupAgg, distinct, derived, joinAgg []string
	for dept, g := range group(func(i int) bool { return empSalary(i) >= s0 }) {
		groupAgg = append(groupAgg, render(dept, g.n, g.sum))
	}
	for dept := range group(func(i int) bool { return empSalary(i) >= s1 }) {
		distinct = append(distinct, render(dept))
	}
	for dept, g := range group(func(i int) bool { return empSalary(i) < s2 }) {
		derived = append(derived, render(dept, g.n))
	}
	for dept, g := range group(func(i int) bool { return empSalary(i) >= s3 }) {
		joinAgg = append(joinAgg, render(deptName(dept), g.n, g.sum))
	}
	union := func(lo int) []string {
		var out []string
		for i := lo; i < lo+5; i++ {
			out = append(out, render(empName(i)))
		}
		for _, name := range deptNames {
			out = append(out, render(name))
		}
		return out
	}
	qs := []analyticQuery{
		{class: "group-agg", want: groupAgg,
			sql: fmt.Sprintf(`SELECT dept_id, COUNT(*), SUM(salary) FROM emp WHERE salary >= %.0f GROUP BY dept_id`, s0)},
		{class: "scan-filter", want: scan(a, d),
			sql: fmt.Sprintf(`SELECT id, name, salary FROM emp WHERE salary BETWEEN %.0f AND %.0f AND dept_id = %d`, a, a+200, d)},
		{class: "distinct", want: distinct,
			sql: fmt.Sprintf(`SELECT DISTINCT dept_id FROM emp WHERE salary >= %.0f`, s1)},
		{class: "union", want: union(x),
			sql: fmt.Sprintf(`SELECT name FROM emp WHERE id BETWEEN %d AND %d UNION SELECT name FROM dept`, x, x+4)},
		{class: "derived", want: derived,
			sql: fmt.Sprintf(`SELECT t.d, t.n FROM (SELECT dept_id AS d, COUNT(*) AS n FROM emp WHERE salary < %.0f GROUP BY dept_id) t WHERE t.n > 0`, s2)},
		{class: "join-agg", want: joinAgg,
			sql: fmt.Sprintf(`SELECT d.name, COUNT(*), SUM(e.salary) FROM emp e JOIN dept d ON e.dept_id = d.id WHERE e.salary >= %.0f GROUP BY d.name`, s3)},
		{class: "point", want: []string{render(empName(pid), empSalary(pid))},
			sql: fmt.Sprintf(`SELECT name, salary FROM emp WHERE id = %d`, pid)},
		{class: "indirect-union", want: union(y), indirect: true,
			sql: fmt.Sprintf(`SELECT name FROM emp WHERE id BETWEEN %d AND %d UNION SELECT name FROM dept`, y, y+4)},
	}
	for i := range qs {
		sort.Strings(qs[i].want)
	}
	return qs
}

// render is the comparison form of one result row.
func render(cols ...any) string { return fmt.Sprint(cols...) }

func renderRow(row []sqlengine.Value) string {
	cols := make([]any, len(row))
	for i, v := range row {
		switch v.Type {
		case sqlengine.TypeInteger, sqlengine.TypeBigint:
			cols[i] = v.I
		case sqlengine.TypeDouble:
			cols[i] = v.F
		default:
			cols[i] = v.S
		}
	}
	return render(cols...)
}

func checkRows(set *sqlengine.ResultSet, want []string) error {
	got := make([]string, len(set.Rows))
	for i, row := range set.Rows {
		got[i] = renderRow(row)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return checkf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return checkf("row %q, want %q", got[i], want[i])
		}
	}
	return nil
}

func launchAnalytic(ctx context.Context, e *env, b *bench) (*system, error) {
	p, err := launchDaisd(ctx, e, "daisd", analyticRows)
	if err != nil {
		return nil, err
	}
	sys := &system{procs: []*proc{p}, entry: p, daisds: []*proc{p}, sqlRefs: []client.ResourceRef{sqlRef(p)},
		xmlRef: xmlRef(p), seed: e.seed, nextID: new(atomic.Int64), queries: analyticQueries(e.seed, analyticRows)}
	sys.nextID.Store(analyticRows)
	return sys, nil
}

// readerScenarios turns the query cycle into scenarios, one per class.
func readerScenarios(b *bench, sys *system) []scenario {
	out := make([]scenario, len(sys.queries))
	for i, q := range sys.queries {
		q := q
		ref := sys.sqlRefs[0]
		out[i] = scenario{name: q.class, weight: 1, kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			var set *sqlengine.ResultSet
			var err error
			if q.indirect {
				set, err = b.indirect(ctx, ref, q.sql, 10000, o)
			} else {
				set, err = b.query(ctx, ref, q.sql)
			}
			if err != nil {
				return err
			}
			o.rows = len(set.Rows)
			return b.check(ctx, func() error {
				if err := checkRows(set, q.want); err != nil {
					return fmt.Errorf("%s: %w", q.class, err)
				}
				return nil
			})
		}}
	}
	return out
}

// writerScenarios are the PK UPDATE and INSERT the writer alternates.
func writerScenarios(b *bench, sys *system) []scenario {
	ref := sys.sqlRefs[0]
	return []scenario{
		{name: "update-pk", weight: 1, kind: kindWrite, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			return b.mustUpdate(ctx, ref, 1, `UPDATE emp SET active = ? WHERE id = ?`,
				sqlengine.NewBool(r.Intn(2) == 0), sqlengine.NewInt(1+r.Int63n(analyticRows)))
		}},
		{name: "insert", weight: 1, kind: kindWrite, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			id := sys.nextID.Add(1)
			return b.mustUpdate(ctx, ref, 1, `INSERT INTO emp (id, name, dept_id, salary) VALUES (?, ?, NULL, NULL)`,
				sqlengine.NewInt(id), sqlengine.NewString(fmt.Sprintf("written-%d", id)))
		}},
	}
}

// warmAnalytic runs one reader cycle and one of each write.
func warmAnalytic(ctx context.Context, e *env, b *bench, sys *system) error {
	r := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	for _, sc := range append(readerScenarios(b, sys), writerScenarios(b, sys)...) {
		if err := sc.run(ctx, r, &outcome{}); err != nil {
			return fmt.Errorf("warm-up %s: %w", sc.name, err)
		}
	}
	return nil
}

// measureAnalytic runs whole reader cycles until dur has passed, with
// the writer's open loop alongside on the other connection. Whole
// cycles keep every query class equally represented in the medians.
func measureAnalytic(ctx context.Context, e *env, b *bench, sys *system, dur time.Duration) (*phase, error) {
	reader := b.traced(readerScenarios(b, sys))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes *loopResult
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Long enough to outlast the reader, which stops it.
		writes, werr = openLoop{rate: analyticWrites, dur: 10 * dur, seed: e.seed + 1, workers: 1,
			mix: b.traced(writerScenarios(b, sys)), stop: stop}.run(ctx)
	}()
	start := time.Now()
	samples := closedLoop(ctx, dur, e.seed, func(i int) *scenario { return &reader[i%len(reader)] })
	// closedLoop stops when its window ends; finish the cycle.
	for i := len(samples) % len(reader); i != 0 && i < len(reader) && ctx.Err() == nil; i++ {
		now := time.Now()
		samples = append(samples, execute(ctx, &reader[i], e.seed+int64(i), now, now))
	}
	window := time.Since(start)
	close(stop)
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	return &phase{samples: append(samples, writes.samples...), window: window}, nil
}
