// Package bench implements the evaluation harness of EXPERIMENTS.md.
//
// The paper is a specification outline with no measured evaluation, so
// each experiment here operationalises one of its quantifiable prose
// claims or architecture figures (see DESIGN.md §4): direct vs indirect
// access (Fig. 1), third-party delivery (Fig. 5), WSRF property
// granularity (§5), rowset paging (§4.3), thin vs thick wrappers
// (§2.1), the ConcurrentAccess property (§4.2), SOAP wrapper overhead
// (§3), soft-state lifetime (§5), dataset formats (§4.1) and the
// transaction properties (§4.2). cmd/daisbench prints one table per
// experiment; bench_test.go wraps the same fixtures in testing.B.
package bench

import (
	"fmt"
	"net"
	"net/http"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/service"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
)

// SQLFixture is a served relational data service plus a consumer.
type SQLFixture struct {
	Engine   *sqlengine.Engine
	Resource *dair.SQLDataResource
	Endpoint *service.Endpoint
	Ref      client.ResourceRef
	Client   *client.Client
	// Obs is the fixture's dedicated observer (nil with NoTelemetry);
	// MetricsURL serves its registry in the Prometheus text format, so
	// experiments can scrape server-side latency like an operator would.
	Obs        *telemetry.Observer
	MetricsURL string
	closers    []func()
}

// FixtureOption adjusts fixture construction.
type FixtureOption struct {
	Rows         int  // rows seeded into the data table (default 1000)
	Concurrent   bool // ConcurrentAccess property (default true)
	WSRF         bool // enable the WSRF layer (default true)
	Thick        bool // use the thick wrapper
	ExtraTables  int  // extra catalog tables to fatten the property document
	NoTelemetry  bool // strip the telemetry interceptors (overhead baseline)
	PlanCacheOff bool // disable the prepared-plan cache (cold-plan baseline)
}

// NewSQLFixture seeds an engine with opt.Rows rows in table data
// (id INTEGER, payload VARCHAR, num DOUBLE) and serves it.
func NewSQLFixture(opt FixtureOption) (*SQLFixture, error) {
	var engOpts []sqlengine.Option
	if opt.PlanCacheOff {
		engOpts = append(engOpts, sqlengine.WithPlanCacheSize(0))
	}
	eng := sqlengine.New("bench", engOpts...)
	eng.MustExec(`CREATE TABLE data (id INTEGER PRIMARY KEY, payload VARCHAR(64), num DOUBLE)`)
	// Ordered index on the key column: range predicates push down and
	// ORDER BY id streams straight off the index.
	eng.MustExec(`CREATE ORDERED INDEX data_id_ord ON data (id)`)
	sess := eng.NewSession()
	for i := 0; i < opt.Rows; i++ {
		if _, err := sess.Execute(`INSERT INTO data VALUES (?, ?, ?)`,
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("row-%06d-payload-abcdefghij", i)),
			sqlengine.NewDouble(float64(i)*1.5)); err != nil {
			return nil, err
		}
	}
	for t := 0; t < opt.ExtraTables; t++ {
		eng.MustExec(fmt.Sprintf(
			`CREATE TABLE extra_%03d (a INTEGER PRIMARY KEY, b VARCHAR(32), c DOUBLE, d BOOLEAN, e TIMESTAMP)`, t))
	}

	var resOpts []dair.ResourceOption
	if opt.Thick {
		resOpts = append(resOpts, dair.WithWrapper(dair.ThickWrapper{}))
	}
	res := dair.NewSQLDataResource(eng, resOpts...)
	svc := core.NewDataService("bench",
		core.WithConcurrentAccess(opt.Concurrent),
		core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	// Each fixture gets a dedicated observer (or none for the bare
	// baseline) so experiments never read each other's numbers.
	var obs *telemetry.Observer
	if !opt.NoTelemetry {
		obs = telemetry.NewObserver(telemetry.WithSlowThreshold(0))
	}
	epOpts := []service.EndpointOption{service.WithTelemetry(obs)}
	if opt.WSRF {
		epOpts = append(epOpts, service.WithWSRF())
	}
	ep := service.NewEndpoint(svc, epOpts...)
	ep.Register(res)

	f := &SQLFixture{Engine: eng, Resource: res, Endpoint: ep, Obs: obs,
		Client: client.NewObserved(nil, obs)}
	if err := f.serve(ep); err != nil {
		return nil, err
	}
	f.Ref = client.Ref(svc.Address(), res.AbstractName())
	return f, nil
}

// serve starts an HTTP listener for an endpoint, recording a closer.
// When the fixture is instrumented, the same listener also serves the
// observer's registry at /metrics (SOAP posts go to /).
func (f *SQLFixture) serve(ep *service.Endpoint) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ep.Service().SetAddress("http://" + ln.Addr().String())
	var h http.Handler = ep
	if f.Obs != nil {
		mux := http.NewServeMux()
		mux.Handle("/", ep)
		mux.Handle("/metrics", f.Obs.Registry.Handler())
		if f.MetricsURL == "" {
			f.MetricsURL = "http://" + ln.Addr().String() + "/metrics"
		}
		h = mux
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck
	f.closers = append(f.closers, func() { srv.Close() })
	return nil
}

// Close shuts every listener down.
func (f *SQLFixture) Close() {
	for _, c := range f.closers {
		c()
	}
}

// MustSQLFixture panics on construction failure (bench helpers).
func MustSQLFixture(opt FixtureOption) *SQLFixture {
	f, err := NewSQLFixture(opt)
	if err != nil {
		panic(err)
	}
	return f
}
