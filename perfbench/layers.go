package main

import (
	"sort"

	"dais/internal/gateway"
	"dais/internal/resil"
	"dais/internal/service"
	"dais/internal/telemetry"
)

// sqlOps are the server operations that execute a SQL statement.
var sqlOps = []string{"SQLExecute", "SQLExecuteFactory", "GenericQuery"}

// histMeanUS is a histogram's Δsum/Δcount in microseconds, and Δcount.
func histMeanUS(a, b *snapshot, procs []*proc, name string, filter map[string]string) (float64, float64) {
	n := delta(a, b, procs, name+"_count", filter)
	if n == 0 {
		return 0, 0
	}
	return delta(a, b, procs, name+"_sum", filter) / n * 1e6, n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers emits the per-layer metrics of a traced run: the span
// attribution along the blocking path, the server counters read around
// the traced phase, and the process and generator costs read around
// the untraced one.
func layers(res *result, sys *system, tr *tracer, tb *bench, sum, tsum *summary,
	before, after, tbefore, tafter *snapshot) {
	lt := tr.attribute()
	entry := []*proc{sys.entry}
	server := map[string]string{"side": telemetry.SideServer}

	handlerUS, handled := histMeanUS(tbefore, tafter, entry, telemetry.MetricLatency, server)
	perCall := func(layer string) float64 { return ratio(lt.self[layer], float64(lt.calls)) }
	perExchange := func(layer string) float64 { return ratio(lt.self[layer], float64(lt.exchanges)) }
	perRequest := func(layer string) float64 { return ratio(lt.self[layer], float64(lt.requests)) }
	roundtripUS := ratio(lt.roundtripSum, float64(lt.exchanges))

	res.add("client.call_us", ratio(lt.callSum, float64(lt.calls)), "us")
	res.add("client.codec_us", perCall("client"), "us")
	res.add("soap.client_us", perExchange("soap"), "us")
	res.add("soap.req_bytes_per_op", ratio(float64(tb.cl.BytesSent()), float64(lt.exchanges)), "B")
	res.add("soap.resp_bytes_per_op", ratio(float64(tb.cl.BytesReceived()), float64(lt.exchanges)), "B")
	hits := delta(tbefore, tafter, entry, telemetry.MetricEncodePool, map[string]string{"outcome": "hit"})
	res.add("soap.encode_pool_hit_ratio", ratio(hits, delta(tbefore, tafter, entry, telemetry.MetricEncodePool, nil)), "ratio")
	res.add("http.roundtrip_us", roundtripUS, "us")
	res.add("http.server_wire_us", roundtripUS-handlerUS, "us")
	res.add("service.handler_us", handlerUS, "us")
	shed := delta(tbefore, tafter, entry, resil.MetricShed, nil)
	res.add("service.shed_ratio", ratio(shed, handled+shed), "ratio")

	// The blocking-path identity, per request: the layers' self times
	// plus the benchmark's own checks and the unattributed remainder
	// add up to the traced request latency (exactly, when a request's
	// calls do not overlap; bulk-fetch's parallel chunks overlap).
	httpPerReq := perRequest("http")
	handlerPerReq := handlerUS * ratio(float64(lt.exchanges), float64(lt.requests))
	sumLayers := perRequest("client") + perRequest("soap") + httpPerReq + perRequest("check") + perRequest("unattributed")
	res.add("trace.request_us", ratio(lt.requestSum, float64(lt.requests)), "us")
	res.add("unattributed_us", perRequest("unattributed"), "us")
	res.add("loadgen.check_us", perRequest("check"), "us")
	res.note("per request: %.1f us = client %.1f + soap %.1f + http %.1f (server handler %.1f + wire %.1f) + check %.1f + unattributed %.1f; residual %.1f (parallel calls overlap when negative)",
		ratio(lt.requestSum, float64(lt.requests)), perRequest("client"), perRequest("soap"), httpPerReq,
		handlerPerReq, httpPerReq-handlerPerReq, perRequest("check"), perRequest("unattributed"),
		ratio(lt.requestSum, float64(lt.requests))-sumLayers)
	res.note("traced: %d requests, %d client calls, %d exchanges, %d spans", lt.requests, lt.calls, lt.exchanges, lt.spans)
	for _, op := range serverOps(tafter, sys.entry) {
		us, n := histMeanUS(tbefore, tafter, entry, telemetry.MetricLatency, map[string]string{"side": telemetry.SideServer, "op": op})
		res.note("service.handler_us[%s] = %.1f over %.0f", op, us, n)
	}

	// sqlengine counters, over the daisd processes.
	var sqlStmts float64
	for _, op := range sqlOps {
		sqlStmts += delta(tbefore, tafter, sys.daisds, telemetry.MetricRequests, map[string]string{"side": telemetry.SideServer, "op": op})
	}
	ph := delta(tbefore, tafter, sys.daisds, service.MetricPlanCacheHits, nil)
	pm := delta(tbefore, tafter, sys.daisds, service.MetricPlanCacheMisses, nil)
	res.add("sqlengine.plan_cache_hit_ratio", ratio(ph, ph+pm), "ratio")
	batches := delta(tbefore, tafter, sys.daisds, service.MetricVectorBatches, nil)
	skipped := delta(tbefore, tafter, sys.daisds, service.MetricVectorChunksSkipped, nil)
	res.add("sqlengine.vector_batches_per_query", ratio(batches, sqlStmts), "count")
	res.add("sqlengine.chunks_skipped_ratio", ratio(skipped, batches+skipped), "ratio")
	res.add("sqlengine.read_wait_during_write_ms", sum.readWaitDuringWrite, "ms")
	res.add("rowset.spill_bytes", delta(tbefore, tafter, sys.daisds, service.MetricRowsetSpillBytes, nil), "B")
	res.add("wsrf.live_delta", delta(tbefore, tafter, sys.daisds, telemetry.MetricWSRFLive, nil), "count")

	// Gateway: the hop is the client round trip minus the backends'
	// handler time, per exchange.
	var hop, fanout, perOp float64
	if sys.entry != sys.daisds[0] {
		backendUS, _ := histMeanUS(tbefore, tafter, sys.daisds, telemetry.MetricLatency, server)
		backendCalls := delta(tbefore, tafter, sys.daisds, telemetry.MetricLatency+"_count", server)
		hop = roundtripUS - ratio(backendUS*backendCalls, float64(lt.exchanges))
		fanout, _ = histMeanUS(tbefore, tafter, entry, gateway.MetricFanout, nil)
		perOp = ratio(delta(tbefore, tafter, entry, gateway.MetricBackendRequests, nil), handled)
	}
	res.add("gateway.hop_us", hop, "us")
	res.add("gateway.fanout_us", fanout, "us")
	res.add("gateway.backend_calls_per_op", perOp, "count")
	res.add("resil.retries", delta(tbefore, tafter, sys.procs, resil.MetricRetries, nil)+localDelta(tbefore, tafter, resil.MetricRetries), "count")
	res.add("resil.breaker_transitions", delta(tbefore, tafter, sys.procs, resil.MetricBreakerTransitions, nil)+localDelta(tbefore, tafter, resil.MetricBreakerTransitions), "count")

	// Process costs, from the untraced phase.
	var daisdCPU, gwCPU float64
	for _, p := range sys.procs {
		d := float64(after.cpu[p]-before.cpu[p]) / 1e6
		if p == sys.entry && sys.entry != sys.daisds[0] {
			gwCPU += d
		} else {
			daisdCPU += d
		}
	}
	requests := float64(sum.requests)
	res.add("daisd.cpu_ms_per_op", ratio(daisdCPU, requests), "ms")
	res.add("daisgw.cpu_ms_per_op", ratio(gwCPU, requests), "ms")
	res.add("loadgen.send_lag_p99_ms", sum.sendLagP99, "ms")
	res.add("loadgen.queue_wait_p50_ms", sum.queueWaitP50, "ms")
	res.add("loadgen.cpu_ms_per_op", ratio(float64(after.self-before.self)/1e6, requests), "ms")
	res.add("trace.overhead_ratio", ratio(tsum.p50, sum.p50), "ratio")
}

// serverOps lists the op labels a process served.
func serverOps(s *snapshot, p *proc) []string {
	seen := map[string]bool{}
	for _, x := range s.metrics[p] {
		if x.Name == telemetry.MetricLatency+"_count" && x.Label("side") == telemetry.SideServer && x.Value > 0 {
			seen[x.Label("op")] = true
		}
	}
	var out []string
	for op := range seen {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}
