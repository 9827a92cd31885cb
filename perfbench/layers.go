package main

import "runtime"

// perLayer lists every per-layer metric the traced run reports, in
// BENCHMARK.json order. Metrics of a layer a workload never calls read 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("s", "sim.wall_s")
	for _, spec := range []string{"fig3", "fig10", "fig12", "fig7", "messaging", "strategies", "attack"} {
		add("s", "sim."+spec+".wall_s")
	}
	add("frac", "sim.cpu_util")
	add("bytes", "sim.journal_bytes")
	add("count", "sim.journal_records")
	add("s", "sim.journal_close_s")
	add("bytes", "sim.csv_bytes")
	add("s", "sim.csv_write_s")
	add("count", "sim.realizations_done", "sim.recovered", "sim.failed_realizations")
	for _, m := range genModels {
		add("count", "gen."+m+".builds")
		add("s", "gen."+m+".busy_s")
		add("1/s", "gen."+m+".nodes_per_s")
	}
	add("count", "gen.hapa.hops")
	add("count/node", "gen.hapa.hops_per_node")
	add("count", "gen.hapa.attempts", "gen.hapa.fallbacks", "gen.hapa.unfilled",
		"gen.dapa.horizon_queries", "gen.dapa.empty_horizons", "gen.dapa.joined", "gen.dapa.attempts", "gen.dapa.fallbacks",
		"gen.pa.attempts", "gen.pa.fallbacks",
		"gen.cm.self_loops_removed", "gen.cm.multi_edges_removed")
	add("count", "graph.freezes")
	add("s", "graph.freeze_s")
	add("MB", "graph.csr_mb")
	add("count", "search.queries")
	add("s", "search.busy_s")
	add("us", "search.query_us.p50", "search.query_us.p99")
	add("count", "search.messages", "search.hits")
	add("frac", "search.hits_per_message")
	add("count", "search.allocs_per_query")
	add("s", "stats.busy_s")
	add("s", "metrics.robustness.random_s", "metrics.robustness.degree_s", "metrics.robustness.betweenness_s")
	add("count", "metrics.steps")
	add("MB", "runtime.alloc_mb")
	add("count", "runtime.gc_cycles")
	add("s", "runtime.gc_cpu_s")
	add("frac", "trace.coverage")
	add("ratio", "trace.overhead")
	return out
}()

// genModels are the generators the replay attributes builds to.
var genModels = []string{"pa", "hapa", "cm", "grn", "dapa"}

// endToEnd lists the untraced metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
}

// layerMetrics computes every per-layer metric from the untraced
// iterations of the run (sim and runtime layers, medians of timings) and
// the traced replay (gen, graph, search, stats, metrics, trace).
func layerMetrics(w workload, its []iteration, t *tracer, rp *replayer) map[string]metric {
	v := map[string]float64{}
	med := func(f func(iteration) float64) float64 { return median(field(its, f)) }
	last := its[len(its)-1]

	v["sim.wall_s"] = med(func(it iteration) float64 { return it.wall })
	for _, spec := range w.specs {
		v["sim."+spec+".wall_s"] = med(func(it iteration) float64 { return it.specWall[spec] })
	}
	procs := float64(runtime.GOMAXPROCS(0))
	v["sim.cpu_util"] = med(func(it iteration) float64 { return it.cpu / (it.wall * procs) })
	v["sim.journal_bytes"] = float64(last.journalBytes)
	v["sim.journal_records"] = float64(last.journalRecords)
	v["sim.journal_close_s"] = med(func(it iteration) float64 { return it.journalClose })
	v["sim.csv_bytes"] = float64(last.csvBytes)
	v["sim.csv_write_s"] = med(func(it iteration) float64 { return it.csvWrite })
	v["sim.realizations_done"] = float64(last.realizationsDone)
	v["sim.recovered"] = float64(last.recovered)
	v["sim.failed_realizations"] = float64(last.failedRealizations)
	v["runtime.alloc_mb"] = med(func(it iteration) float64 { return it.runtime.allocBytes / (1 << 20) })
	v["runtime.gc_cycles"] = med(func(it iteration) float64 { return it.runtime.gcCycles })
	v["runtime.gc_cpu_s"] = med(func(it iteration) float64 { return it.runtime.gcCPU })

	byName := t.selfByName()
	layers := t.selfByLayer()
	for _, m := range genModels {
		p := "gen." + m + "."
		busy := byName["gen."+m]
		v[p+"builds"] = rp.ctr[p+"builds"]
		v[p+"busy_s"] = busy
		if busy > 0 {
			v[p+"nodes_per_s"] = rp.ctr[p+"nodes"] / busy
		}
	}
	for _, k := range []string{"gen.hapa.hops", "gen.hapa.attempts", "gen.hapa.fallbacks", "gen.hapa.unfilled",
		"gen.dapa.horizon_queries", "gen.dapa.empty_horizons", "gen.dapa.joined", "gen.dapa.attempts", "gen.dapa.fallbacks",
		"gen.pa.attempts", "gen.pa.fallbacks", "gen.cm.self_loops_removed", "gen.cm.multi_edges_removed",
		"graph.freezes", "search.queries", "search.messages", "search.hits", "metrics.steps"} {
		v[k] = rp.ctr[k]
	}
	if n := rp.ctr["gen.hapa.nodes"]; n > 0 {
		v["gen.hapa.hops_per_node"] = rp.ctr["gen.hapa.hops"] / n
	}
	v["graph.freeze_s"] = byName["graph.freeze"] + byName["graph.sort"]
	v["graph.csr_mb"] = rp.csrMaxBytes / (1 << 20)
	v["search.busy_s"] = layers["search"]
	if q := rp.ctr["search.queries"]; q > 0 {
		v["search.query_us.p50"] = quantile(rp.queryUS, 0.5)
		v["search.query_us.p99"] = quantile(rp.queryUS, 0.99)
		v["search.allocs_per_query"] = rp.ctr["search.allocs"] / q
	}
	if msgs := rp.ctr["search.messages"]; msgs > 0 {
		v["search.hits_per_message"] = rp.ctr["search.hits"] / msgs
	}
	v["stats.busy_s"] = layers["stats"]
	for _, s := range []string{"random", "degree", "betweenness"} {
		v["metrics.robustness."+s+"_s"] = byName["metrics.robustness."+s]
	}

	shares := t.layerShares()
	for _, l := range traceLayers {
		v["trace.coverage"] += shares[l]
	}
	root := t.spans[0]
	v["trace.overhead"] = (root.End - root.Start).Seconds() / med(func(it iteration) float64 { return it.wall })

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
