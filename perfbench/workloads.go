package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"dais/internal/client"
	"dais/internal/dair"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// Fixed workload constants. Each open-loop rate is about a fifth of
// the capacity_rps its workload reached on a quiet two-core host when
// the benchmark was defined (oltp-mix 1160–1340 req/s, gateway-mix
// 240–560 req/s). That keeps it below the capacity the same host showed
// while other tenants stole 3–25% of its CPU (oltp-mix 290–660 req/s,
// gateway-mix 120–180 req/s and under 120 at 25%), so the latency
// figures stay off the steep part of the queueing curve and the
// generator keeps its schedule.
const (
	oltpRows       = 1000  // emp rows behind oltp-mix and gateway-mix
	oltpRate       = 250.0 // oltp-mix nominal arrivals per second
	acctRows       = 200   // small table the oltp-mix writers update
	gatewayRate    = 75.0  // gateway-mix arrivals per second
	partRows       = 3000  // rows of the sharded table, split over 3 backends
	analyticWrites = 0.5   // analytic-rw writer arrivals per second
)

// The bulk result and the analytic table are kept small enough that
// the server's heap stays near 60 and 130 MiB. Other guests of a shared
// host compete for its memory system in ways no counter shows, and at
// 200k rows (about 400 and 500 MiB) runs on a quiet host differed by up
// to twofold.
const (
	bulkRows     = 20000
	analyticRows = 50000
)

// system is the set of spawned processes one workload runs against.
type system struct {
	procs   []*proc // every system-under-test process, in start order
	entry   *proc   // the process the generator sends requests to
	daisds  []*proc
	sqlRefs []client.ResourceRef // routed SQL resources, addressed at entry
	xmlRef  client.ResourceRef
	alias   client.ResourceRef // gateway-mix scatter alias
	nextID  *atomic.Int64      // fresh primary keys for INSERT writers
	// Workload inputs derived from the seed at launch.
	seed       int64
	bulkOffset int
	queries    []analyticQuery
}

func (s *system) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// env is what launching needs: the binaries, the log directory and the
// seed the inputs derive from.
type env struct {
	binDir, logDir string
	seed           int64
	conns          int
}

// workload is one benchmark input set: how to launch and fill the
// system, how to warm it, and how to drive one measured phase.
type workload struct {
	name  string
	why   string
	tailQ float64 // the tail percentile reported as tail_ms
	// window is the fewest per-request samples one window of the
	// windowed medians holds. analytic-rw uses one window for the whole
	// phase: its reader runs whole cycles, so every statement class is
	// equally represented only over the whole phase.
	window int
	// rate and mix describe the open-loop workloads: the nominal
	// arrival rate and the request mix the capacity search also offers.
	rate    float64
	mix     func(*bench, *system) []scenario
	launch  func(ctx context.Context, e *env, b *bench) (*system, error)
	warm    func(ctx context.Context, e *env, b *bench, sys *system) error
	measure func(ctx context.Context, e *env, b *bench, sys *system, dur time.Duration) (*phase, error)
}

// phase is one measured window's raw results.
type phase struct {
	samples []sample
	start   time.Time // open loops: when the arrival window opened
	window  time.Duration
	backlog int
	// pages holds bulk-fetch GetTuples calls, whose latency stands in
	// for per-request latency there.
	pages []call
	// slots is the host's interference over the phase.
	slots []slot
}

var workloads = []*workload{
	{
		name:    "oltp-mix",
		why:     "open loop at 250/s: small direct/indirect SQL, XPath, WSRF and PK writes; per-request layers dominate; ~1800 SQL texts overflow the plan cache",
		tailQ:   0.99,
		window:  50,
		rate:    oltpRate,
		mix:     oltpMix,
		launch:  launchOLTP,
		warm:    warmMix(oltpMix),
		measure: measureOpen(oltpRate, oltpMix),
	},
	{
		name:    "bulk-fetch",
		why:     "closed loop: one 20k-row indirect fetch at a time in nproc GetTuples chunks; rowset codec and XML parse dominate",
		tailQ:   0.98,
		window:  50,
		launch:  launchBulk,
		warm:    warmBulk,
		measure: measureBulk,
	},
	{
		name:    "analytic-rw",
		why:     "closed-loop reader of 8 analytic statements plus a 0.5/s open-loop PK writer on 50k rows; sqlengine dominates",
		tailQ:   0.75,
		window:  math.MaxInt32,
		launch:  launchAnalytic,
		warm:    warmAnalytic,
		measure: measureAnalytic,
	},
	{
		name:    "gateway-mix",
		why:     "open loop at 75/s: oltp-mix reads plus alias scatter through daisgw over three daisd backends; the gateway hop",
		tailQ:   0.99,
		window:  50,
		rate:    gatewayRate,
		mix:     gatewayMix,
		launch:  launchGateway,
		warm:    warmMix(gatewayMix),
		measure: measureOpen(gatewayRate, gatewayMix),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func launchDaisd(ctx context.Context, e *env, name string, rows int) (*proc, error) {
	return spawn(ctx, name, e.binDir+"/daisd", e.logDir, 3, "-seed-rows", fmt.Sprint(rows))
}

// sqlRef and xmlRef address a daisd's own resources directly.
func sqlRef(p *proc) client.ResourceRef { return client.Ref(p.base+"/sql", p.resources["relational"]) }
func xmlRef(p *proc) client.ResourceRef { return client.Ref(p.base+"/xml", p.resources["xml"]) }

// --- oltp-mix ---

func launchOLTP(ctx context.Context, e *env, b *bench) (*system, error) {
	p, err := launchDaisd(ctx, e, "daisd", oltpRows)
	if err != nil {
		return nil, err
	}
	sys := &system{procs: []*proc{p}, entry: p, daisds: []*proc{p},
		sqlRefs: []client.ResourceRef{sqlRef(p)}, xmlRef: xmlRef(p), nextID: new(atomic.Int64), seed: e.seed}
	sys.nextID.Store(acctRows)
	r := rand.New(rand.NewSource(e.seed))
	ref := sys.sqlRefs[0]
	stmts := []string{
		`CREATE ORDERED INDEX emp_id_ord ON emp (id)`,
		`CREATE TABLE acct (id INTEGER PRIMARY KEY, owner VARCHAR(32), bal INTEGER)`,
	}
	var vals []string
	for i := 1; i <= acctRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'owner-%d', %d)", i, i, r.Intn(10000)))
	}
	stmts = append(stmts, `INSERT INTO acct VALUES `+strings.Join(vals, ", "))
	for _, s := range stmts {
		if _, err := b.exec(ctx, ref, s); err != nil {
			sys.stop()
			return nil, fmt.Errorf("oltp fixture %q: %w", s[:min(len(s), 40)], err)
		}
	}
	return sys, nil
}

// readMix is the read classes oltp-mix and gateway-mix share. SQL
// reads pick one of refs uniformly; range bounds vary per request, so
// the statement texts number in the thousands.
func readMix(b *bench, sys *system) []scenario {
	refs := sys.sqlRefs
	return []scenario{
		{name: "sql-direct", weight: 6, kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			ref := refs[r.Intn(len(refs))]
			lo := 1 + r.Intn(oltpRows-20)
			set, err := b.query(ctx, ref, fmt.Sprintf(`SELECT id, name, salary FROM emp WHERE id BETWEEN %d AND %d`, lo, lo+19))
			if err != nil {
				return err
			}
			o.rows = len(set.Rows)
			return b.check(ctx, func() error { return checkEmpRows(set, lo, lo+19, "ins") })
		}},
		{name: "sql-indirect", weight: 2, kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			ref := refs[r.Intn(len(refs))]
			lo := 1 + r.Intn(oltpRows-10)
			set, err := b.indirect(ctx, ref, fmt.Sprintf(`SELECT id, name FROM emp WHERE id BETWEEN %d AND %d`, lo, lo+9), 10, o)
			if err != nil {
				return err
			}
			o.rows = len(set.Rows)
			return b.check(ctx, func() error { return checkEmpRows(set, lo, lo+9, "in") })
		}},
		{name: "xml-xpath", weight: 2, kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			price := []int{50, 70, 100}[r.Intn(3)]
			var items []client.SequenceItem
			err := b.call(ctx, "XPathExecute", func(ctx context.Context) error {
				var err error
				items, err = b.cl.XPathExecute(ctx, sys.xmlRef, fmt.Sprintf(`//book[price>%d]/title`, price))
				return err
			})
			if err != nil {
				return err
			}
			o.rows = len(items)
			return b.check(ctx, func() error {
				var titles []string
				for _, it := range items {
					if it.Node == nil {
						return checkf("xpath item without a node")
					}
					titles = append(titles, it.Node.Text())
				}
				if want := expectTitles(price); !sameStrings(titles, want) {
					return checkf("price>%d titles %q, want %q", price, titles, want)
				}
				return nil
			})
		}},
		{name: "wsrf-props", weight: 2, kind: kindRead, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			ref := refs[r.Intn(len(refs))]
			var props []*xmlutil.Element
			err := b.call(ctx, "GetResourceProperty", func(ctx context.Context) error {
				var err error
				props, err = b.cl.GetResourceProperty(ctx, ref, "Readable")
				return err
			})
			if err != nil {
				return err
			}
			o.rows = len(props)
			return b.check(ctx, func() error {
				if len(props) == 0 || strings.TrimSpace(props[0].Text()) == "" {
					return checkf("empty Readable property")
				}
				return nil
			})
		}},
		{name: "wsrf-lifetime", weight: 0.5, kind: kindOther, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			ref := refs[r.Intn(len(refs))]
			// Far in the future: exercises the lifetime write path
			// without letting the reaper near the resource.
			want := time.Now().Add(time.Hour)
			var got *time.Time
			err := b.call(ctx, "SetTerminationTime", func(ctx context.Context) error {
				var err error
				got, err = b.cl.SetTerminationTime(ctx, ref, &want)
				return err
			})
			if err != nil {
				return err
			}
			return b.check(ctx, func() error {
				if got == nil || got.Sub(want).Abs() > time.Second {
					return checkf("termination time %v, want %v", got, want)
				}
				return nil
			})
		}},
	}
}

func oltpMix(b *bench, sys *system) []scenario {
	ref := sys.sqlRefs[0]
	return append(readMix(b, sys),
		scenario{name: "write-update", weight: 1, kind: kindWrite, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			return b.mustUpdate(ctx, ref, 1, `UPDATE acct SET bal = bal + ? WHERE id = ?`,
				sqlengine.NewInt(1+r.Int63n(100)), sqlengine.NewInt(1+r.Int63n(acctRows)))
		}},
		scenario{name: "write-insert", weight: 1, kind: kindWrite, run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			id := sys.nextID.Add(1)
			return b.mustUpdate(ctx, ref, 1, `INSERT INTO acct (id, owner, bal) VALUES (?, ?, ?)`,
				sqlengine.NewInt(id), sqlengine.NewString(fmt.Sprintf("owner-%d", id)), sqlengine.NewInt(r.Int63n(10000)))
		}},
	)
}

// warmMix runs each class of a mix a few times back to back, so
// connections, pools and the plan cache are warm before timing.
func warmMix(mixOf func(*bench, *system) []scenario) func(context.Context, *env, *bench, *system) error {
	return func(ctx context.Context, e *env, b *bench, sys *system) error {
		mix := mixOf(b, sys)
		r := rand.New(rand.NewSource(e.seed ^ 0x5eed))
		for i := 0; i < 20*len(mix); i++ {
			sc := &mix[i%len(mix)]
			if err := sc.run(ctx, r, &outcome{}); err != nil {
				return fmt.Errorf("warm-up %s: %w", sc.name, err)
			}
		}
		return nil
	}
}

// measureOpen runs an open loop over a workload's mix at its nominal
// rate for the whole window.
func measureOpen(rate float64, mixOf func(*bench, *system) []scenario) func(context.Context, *env, *bench, *system, time.Duration) (*phase, error) {
	return func(ctx context.Context, e *env, b *bench, sys *system, dur time.Duration) (*phase, error) {
		res, err := openLoop{rate: rate, dur: dur, seed: e.seed, workers: e.conns, mix: b.traced(mixOf(b, sys))}.run(ctx)
		if err != nil {
			return nil, err
		}
		return &phase{samples: res.samples, start: res.start, window: res.window, backlog: res.backlog}, nil
	}
}

// --- gateway-mix ---

// gatewayAlias names the scatter alias over the three backends' part
// shards.
const gatewayAlias = "urn:dais:bench:part"

// partValue is the seeded payload of part row id.
func partValue(seed int64, id int) string {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return fmt.Sprintf("p%d-%d", id, x%100000)
}

func launchGateway(ctx context.Context, e *env, b *bench) (*system, error) {
	sys := &system{nextID: new(atomic.Int64), seed: e.seed}
	var members []string
	args := []string{}
	for k := 0; k < 3; k++ {
		p, err := launchDaisd(ctx, e, fmt.Sprintf("daisd-%d", k), oltpRows)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.procs = append(sys.procs, p)
		sys.daisds = append(sys.daisds, p)
		ref := sqlRef(p)
		stmts := []string{
			`CREATE ORDERED INDEX emp_id_ord ON emp (id)`,
			`CREATE TABLE part (id INTEGER PRIMARY KEY, v VARCHAR(32))`,
			`CREATE ORDERED INDEX part_id_ord ON part (id)`,
		}
		var vals []string
		for id := 1; id <= partRows; id++ {
			if id%3 == k {
				vals = append(vals, fmt.Sprintf("(%d, '%s')", id, partValue(e.seed, id)))
			}
		}
		stmts = append(stmts, `INSERT INTO part VALUES `+strings.Join(vals, ", "))
		for _, s := range stmts {
			if _, err := b.exec(ctx, ref, s); err != nil {
				sys.stop()
				return nil, fmt.Errorf("gateway fixture on %s: %w", p.name, err)
			}
		}
		members = append(members, ref.AbstractName+"@"+ref.Address)
		args = append(args, "-backend", ref.Address, "-backend", p.base+"/xml")
	}
	args = append(args, "-alias", gatewayAlias+"="+strings.Join(members, ","))
	gw, err := spawn(ctx, "daisgw", e.binDir+"/daisgw", e.logDir, 0, args...)
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.procs = append(sys.procs, gw)
	sys.entry = gw
	for _, p := range sys.daisds {
		sys.sqlRefs = append(sys.sqlRefs, client.Ref(gw.base, p.resources["relational"]))
	}
	sys.xmlRef = client.Ref(gw.base, sys.daisds[0].resources["xml"])
	sys.alias = client.Ref(gw.base, gatewayAlias)
	return sys, nil
}

func gatewayMix(b *bench, sys *system) []scenario {
	return append(readMix(b, sys), scenario{name: "alias-scatter", weight: 2, kind: kindRead,
		run: func(ctx context.Context, r *rand.Rand, o *outcome) error {
			lo := 1 + r.Intn(partRows-30)
			q := fmt.Sprintf(`SELECT id, v FROM part WHERE id BETWEEN %d AND %d`, lo, lo+29)
			var el *xmlutil.Element
			err := b.call(ctx, "GenericQuery", func(ctx context.Context) error {
				var err error
				el, err = b.cl.GenericQuery(ctx, sys.alias, dair.LanguageSQL92, q)
				return err
			})
			if err != nil {
				return err
			}
			return b.check(ctx, func() error {
				if el.Name.Local != "SQLRowset" {
					return checkf("scatter reply %s, want SQLRowset", el.Name.Local)
				}
				set, err := rowset.DecodeSQLRowsetElement(el)
				if err != nil {
					return checkf("scatter rowset: %v", err)
				}
				o.rows = len(set.Rows)
				// The merge concatenates shards, so only the row set is
				// defined, not its order.
				seen := map[int64]bool{}
				for _, row := range set.Rows {
					id := row[0].I
					if id < int64(lo) || id > int64(lo+29) || seen[id] || row[1].S != partValue(sys.seed, int(id)) {
						return checkf("scatter row %v unexpected", row)
					}
					seen[id] = true
				}
				if len(seen) != 30 {
					return checkf("scatter returned %d of 30 rows", len(seen))
				}
				return nil
			})
		}})
}
