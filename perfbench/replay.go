package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/xmldb"
	"dais/internal/xmlutil"
)

// Replays time the public functions of single layers in this process,
// on inputs shaped like the workload's: the envelopes the traced phase
// received, and an engine, XML store and WSRF registry built the way
// daisd builds its own.

// replayBudget bounds the time spent replaying one function; every
// function runs at least minReplays times and reports the median.
const (
	replayBudget = 150 * time.Millisecond
	minReplays   = 3
)

func timeIt(fn func() error) (time.Duration, error) {
	// Start each replay from a collected heap, so one replay's garbage
	// does not land in the next one's timing.
	runtime.GC()
	var runs []time.Duration
	start := time.Now()
	for len(runs) < minReplays || time.Since(start) < replayBudget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs = append(runs, time.Since(t0))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[len(runs)/2], nil
}

// seedEngine builds the relational data daisd -seed-rows rows holds
// (cmd/daisd seedRelational), plus the ordered index the oltp fixtures
// add.
func seedEngine(rows int, orderedIndex bool) (*sqlengine.Engine, error) {
	eng := sqlengine.New("hr", sqlengine.WithPlanCacheSize(256))
	for _, s := range []string{
		`CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR(32) NOT NULL)`,
		`INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'legal'), (4, 'ops')`,
		`CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(64) NOT NULL, dept_id INTEGER, salary DOUBLE, active BOOLEAN DEFAULT TRUE)`,
	} {
		if _, err := eng.Exec(s); err != nil {
			return nil, err
		}
	}
	sess := eng.NewSession()
	for i := 1; i <= rows; i++ {
		if _, err := sess.Execute(`INSERT INTO emp (id, name, dept_id, salary) VALUES (?, ?, ?, ?)`,
			sqlengine.NewInt(int64(i)), sqlengine.NewString(empName(i)),
			sqlengine.NewInt(empDept(i)), sqlengine.NewDouble(empSalary(i))); err != nil {
			return nil, err
		}
	}
	if orderedIndex {
		if _, err := eng.Exec(`CREATE ORDERED INDEX emp_id_ord ON emp (id)`); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func replays(ctx context.Context, res *result, w *workload, sys *system, tr *tracer) error {
	if err := replaySOAP(res, tr); err != nil {
		return err
	}
	rows, oltp := analyticRows, false
	switch w.name {
	case "oltp-mix", "gateway-mix":
		rows, oltp = oltpRows, true
	case "bulk-fetch":
		rows = bulkRows
	}
	eng, err := seedEngine(rows, oltp)
	if err != nil {
		return fmt.Errorf("replay engine: %w", err)
	}
	qs := analyticQueries(sys.seed, rows)
	lo := 1 + int(sys.seed%int64(rows-20))
	stmts := map[string]string{
		"range": fmt.Sprintf(`SELECT id, name, salary FROM emp WHERE id BETWEEN %d AND %d`, lo, lo+19),
	}
	for _, q := range qs {
		switch q.class {
		case "group-agg", "scan-filter", "distinct", "union", "derived", "join-agg", "point":
			stmts[q.class] = q.sql
		}
	}
	sess := eng.NewSession()
	execUS := map[string]float64{}
	for _, class := range []string{"point", "range", "group-agg", "distinct", "union", "derived", "join-agg", "scan-filter"} {
		sql := stmts[class]
		d, err := timeIt(func() error { _, err := sess.ExecuteContext(ctx, sql); return err })
		if err != nil {
			return fmt.Errorf("replay %s: %w", class, err)
		}
		execUS[class] = us(d)
	}
	// dair: a point statement through the realisation, paired with the
	// same statement on the engine; the median of the per-pair
	// differences is the realisation's own cost, which is too small to
	// read off two separately timed medians.
	resource := dair.NewSQLDataResource(eng)
	point := stmts["point"]
	var viaDair, self []float64
	runtime.GC()
	for start := time.Now(); len(self) < 20 || time.Since(start) < replayBudget; {
		t0 := time.Now()
		if _, err := sess.ExecuteContext(ctx, point); err != nil {
			return fmt.Errorf("replay point: %w", err)
		}
		t1 := time.Now()
		if _, err := resource.SQLExecute(ctx, point, nil); err != nil {
			return fmt.Errorf("replay dair: %w", err)
		}
		d := time.Since(t1)
		viaDair = append(viaDair, us(d))
		self = append(self, us(d-t1.Sub(t0)))
	}
	res.add("dair.sqlexecute_us", median(viaDair), "us")
	res.add("dair.self_us", median(self), "us")

	next := int64(rows)
	d, err := timeIt(func() error {
		next++
		_, err := sess.ExecuteContext(ctx, `UPDATE emp SET active = ? WHERE id = ?`,
			sqlengine.NewBool(next%2 == 0), sqlengine.NewInt(1+next%int64(rows)))
		return err
	})
	if err != nil {
		return fmt.Errorf("replay update-pk: %w", err)
	}
	execUS["update-pk"] = us(d)
	d, err = timeIt(func() error {
		next++
		_, err := sess.ExecuteContext(ctx, `INSERT INTO emp (id, name, dept_id, salary) VALUES (?, ?, NULL, NULL)`,
			sqlengine.NewInt(next), sqlengine.NewString(fmt.Sprintf("written-%d", next)))
		return err
	})
	if err != nil {
		return fmt.Errorf("replay insert: %w", err)
	}
	execUS["insert"] = us(d)
	for _, class := range []string{"point", "range", "group-agg", "distinct", "union", "derived", "join-agg", "scan-filter", "update-pk", "insert"} {
		res.add("sqlengine.exec_us."+class, execUS[class], "us")
	}

	if err := replayRowset(ctx, res, sess, min(rows, client.DefaultChunkRows)); err != nil {
		return err
	}
	if err := replayXML(res); err != nil {
		return err
	}
	return replayWSRF(res, resource)
}

// replaySOAP re-parses and re-marshals the response envelopes the
// traced phase received.
func replaySOAP(res *result, tr *tracer) error {
	tr.capMu.Lock()
	envs := append([]*soap.Envelope(nil), tr.captured...)
	tr.capMu.Unlock()
	if len(envs) == 0 {
		return fmt.Errorf("replay soap: no envelopes captured")
	}
	var bodies [][]byte
	var kb float64
	for _, env := range envs {
		b := append([]byte(nil), env.Marshal()...)
		bodies = append(bodies, b)
		kb += float64(len(b)) / 1024
	}
	parse, err := timeIt(func() error {
		for _, b := range bodies {
			if _, err := soap.ParseEnvelope(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay soap parse: %w", err)
	}
	marshal, _ := timeIt(func() error {
		for _, env := range envs {
			env.Marshal()
		}
		return nil
	})
	res.add("soap.parse_us_per_kb", us(parse)/kb, "us/KiB")
	res.add("soap.marshal_us", us(marshal)/float64(len(envs)), "us")
	return nil
}

// replayRowset encodes and decodes one page of the bulk shape (id,
// name, dept_id, salary).
func replayRowset(ctx context.Context, res *result, sess *sqlengine.Session, page int) error {
	r, err := sess.ExecuteContext(ctx, fmt.Sprintf(`SELECT id, name, dept_id, salary FROM emp WHERE id <= %d`, page))
	if err != nil || r.Set == nil || len(r.Set.Rows) != page {
		return fmt.Errorf("replay rowset: page query: %v", err)
	}
	codec := rowset.SQLRowsetCodec{}
	var data []byte
	enc, err := timeIt(func() error {
		var err error
		data, err = rowset.EncodeWindow(codec, r.Set, 1, page)
		return err
	})
	if err != nil {
		return fmt.Errorf("replay rowset encode: %w", err)
	}
	dec, err := timeIt(func() error {
		set, err := codec.Decode(data)
		if err == nil && len(set.Rows) != page {
			err = fmt.Errorf("decoded %d rows", len(set.Rows))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay rowset decode: %w", err)
	}
	res.add("rowset.encode_us_per_krow", us(enc)*1000/float64(page), "us/krow")
	res.add("rowset.decode_us_per_krow", us(dec)*1000/float64(page), "us/krow")
	res.add("rowset.wire_bytes_per_row", float64(len(data))/float64(page), "B")
	return nil
}

// replayXML runs the oltp-mix XPath against the seeded book collection.
func replayXML(res *result) error {
	store := xmldb.NewStore("library")
	genres := []string{"db", "grid", "db"}
	authors := []string{"Ozsu", "Foster", "Gray"}
	for i, b := range books {
		doc, err := xmlutil.ParseString(fmt.Sprintf(`<book id="%d" genre="%s"><title>%s</title><author>%s</author><price>%d</price></book>`,
			i+1, genres[i], b.title, authors[i], b.price))
		if err != nil {
			return err
		}
		if err := store.AddDocument("", fmt.Sprintf("book%d.xml", i+1), doc); err != nil {
			return err
		}
	}
	d, err := timeIt(func() error {
		out, err := store.XPathQuery("", `//book[price>70]/title`)
		if err == nil && len(out) != len(expectTitles(70)) {
			err = fmt.Errorf("xpath returned %d titles", len(out))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay xpath: %w", err)
	}
	res.add("xmldb.xpath_us", us(d), "us")
	return nil
}

// replayWSRF reads one resource property through a WSRF registry
// populated the way daisd's relational endpoint is.
func replayWSRF(res *result, resource *dair.SQLDataResource) error {
	svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc, service.WithTelemetry(nil), service.WithWSRF())
	ep.Register(resource)
	reg := ep.WSRF()
	defer reg.Close()
	d, err := timeIt(func() error {
		props, err := reg.GetResourceProperty(resource.AbstractName(), core.NSDAI, "Readable")
		if err == nil && len(props) == 0 {
			err = fmt.Errorf("empty Readable property")
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("replay wsrf: %w", err)
	}
	res.add("wsrf.get_property_us", us(d), "us")
	return nil
}
