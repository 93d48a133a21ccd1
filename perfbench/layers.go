package main

// metricDef names one reported metric.  For a per-layer metric, moves is
// the end-to-end metric a change to that layer should move, on is the
// workload where it should move, and flat the workload where it should not.
type metricDef struct {
	name, unit, better string
	moves, on, flat    string
}

// endToEnd are the metrics a user of the service sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "success_share", unit: "share", better: "higher"},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower"},
	{name: "mem_peak_mb", unit: "MiB", better: "lower"},
}

// perLayer are the traced run's metrics.  Times are per-call medians of the
// stage replay; a _share is that stage's fraction of served time (the sum of
// the root spans).  Counts and ratios come from the response blocks and the
// servers' public counters.
var perLayer = []metricDef{
	{"lp.solve_ms", "ms", "lower", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.solve_share", "share", "lower", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.pivots_per_solve", "count", "lower", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.refactors_per_solve", "count", "lower", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.warm_start_share", "share", "higher", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.symbolic_reuse_share", "share", "higher", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.alloc_kb_per_solve", "KiB", "lower", "throughput_rps latency_p50_ms", "lp-serve", "opt-serve"},
	{"lp.resolve_ms", "ms", "lower", "throughput_rps latency_tail_ms", "front-mix", "opt-serve"},
	{"lp.pivots_per_resolve", "count", "lower", "throughput_rps latency_tail_ms", "front-mix", "opt-serve"},
	{"lp.cascade_fallbacks", "count", "lower", "success_share", "lp-serve front-mix", ""},
	{"lp.verify_failures", "count", "lower", "success_share", "lp-serve front-mix", ""},
	{"lpmodel.build_ms", "ms", "lower", "throughput_rps", "lp-serve", "opt-serve"},
	{"lpmodel.rows", "count", "lower", "throughput_rps", "lp-serve", "opt-serve"},
	{"lpmodel.columns", "count", "lower", "throughput_rps", "lp-serve", "opt-serve"},
	{"lpmodel.extend_ms", "ms", "lower", "throughput_rps", "front-mix", "opt-serve"},
	{"lpmodel.extract_ms", "ms", "lower", "success_share latency_tail_ms", "lp-serve", "opt-serve"},
	{"lpmodel.extract_candidates", "count", "lower", "success_share latency_tail_ms", "lp-serve", "opt-serve"},
	{"lpmodel.extract_failures", "count", "lower", "success_share latency_tail_ms", "lp-serve", "opt-serve"},
	{"opt.search_ms", "ms", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.search_share", "share", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.expanded_per_search", "count", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.generated_per_search", "count", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.bound_prune_share", "share", "higher", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.dominance_share", "share", "higher", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.landmark_hits_per_search", "count", "higher", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.peak_table_max", "count", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.seed_optimal_share", "share", "higher", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"opt.alloc_kb_per_search", "KiB", "lower", "throughput_rps latency_tail_ms mem_peak_mb", "opt-serve", "lp-serve front-mix"},
	{"sim.run_ms", "ms", "lower", "latency_p50_ms", "front-mix", ""},
	{"single.run_ms", "ms", "lower", "latency_p50_ms", "front-mix", "lp-serve"},
	{"parallel.run_ms", "ms", "lower", "latency_p50_ms", "front-mix", "lp-serve"},
	{"workload.instance_ms", "ms", "lower", "latency_p50_ms", "front-mix", ""},
	{"service.self_ms", "ms", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.self_share", "share", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.alloc_kb_per_op", "KiB", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.cache_hit_share", "share", "higher", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.computed_per_op", "count", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.shed", "count", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.solver_resets", "count", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"service.session_rebuilds", "count", "lower", "latency_p50_ms throughput_rps", "front-mix", "lp-serve"},
	{"front.self_ms", "ms", "lower", "latency_p50_ms", "front-mix", "lp-serve opt-serve"},
	{"front.self_share", "share", "lower", "latency_p50_ms", "front-mix", "lp-serve opt-serve"},
	{"front.attempts_per_op", "count", "lower", "latency_p50_ms", "front-mix", "lp-serve opt-serve"},
	{"front.backend_share_max", "share", "lower", "latency_p50_ms", "front-mix", "lp-serve opt-serve"},
	{"front.session_share_max", "share", "lower", "latency_p50_ms", "front-mix", "lp-serve opt-serve"},
	{"trace.overhead_share", "share", "lower", "", "", ""},
}

// layerMetrics computes the per-layer metrics of a traced run from its
// runner's tallies and the public counters before and after the timed ops.
// lp.cascade_fallbacks, lp.verify_failures and trace.overhead_share need
// the untraced run and are filled in by the caller.
func layerMetrics(r *runner, before, after counters) map[string]float64 {
	rep := r.rep
	m := make(map[string]float64)
	ops := float64(r.ex.Attempted)
	sum := func(s stage) float64 {
		t := 0.0
		for _, v := range rep.calls[s] {
			t += v
		}
		return t
	}
	med := func(s stage) float64 { return median(rep.calls[s]) }

	m["lp.solve_ms"] = med(stSolve)
	m["lp.solve_share"] = ratio(sum(stSolve), r.servedSum)
	m["lp.pivots_per_solve"] = ratio(float64(r.ex.LPPivots), float64(r.ex.LPSolves))
	m["lp.refactors_per_solve"] = ratio(float64(rep.solve.refactors), float64(rep.solve.calls))
	m["lp.warm_start_share"] = ratio(float64(rep.solve.warmStarts), float64(rep.solve.calls))
	m["lp.symbolic_reuse_share"] = ratio(float64(rep.solve.symbolicReuses), float64(rep.solve.refactors))
	m["lp.alloc_kb_per_solve"] = ratio(float64(rep.solve.allocBytes)/1024, float64(rep.solve.calls))
	m["lp.resolve_ms"] = med(stResolve)
	m["lp.pivots_per_resolve"] = ratio(float64(r.ex.LPResolvePivots), float64(r.ex.LPResolves))

	m["lpmodel.build_ms"] = med(stBuild)
	m["lpmodel.rows"] = meanInts(r.lpRows)
	m["lpmodel.columns"] = meanInts(r.lpVars)
	m["lpmodel.extend_ms"] = med(stExtend)
	m["lpmodel.extract_ms"] = med(stExtract)
	m["lpmodel.extract_candidates"] = meanInts(r.lpCandidates)
	m["lpmodel.extract_failures"] = float64(r.ex.ExtractFailures)

	searches := float64(r.ex.OptSearches)
	m["opt.search_ms"] = med(stOpt)
	m["opt.search_share"] = ratio(sum(stOpt), r.servedSum)
	m["opt.expanded_per_search"] = ratio(float64(r.ex.OptExpanded), searches)
	m["opt.generated_per_search"] = ratio(float64(r.optGenerated), searches)
	m["opt.bound_prune_share"] = ratio(float64(r.optPrunedBound), float64(r.optGenerated))
	m["opt.dominance_share"] = ratio(float64(r.optPrunedDom), float64(r.optGenerated))
	m["opt.landmark_hits_per_search"] = ratio(float64(r.optLandmark), searches)
	m["opt.peak_table_max"] = float64(r.optPeakMax)
	m["opt.seed_optimal_share"] = ratio(float64(r.optSeedOptimal), searches)
	m["opt.alloc_kb_per_search"] = ratio(float64(rep.optAllocBytes)/1024, float64(rep.optSearches))

	m["sim.run_ms"] = med(stSim)
	m["single.run_ms"] = med(stSingle)
	m["parallel.run_ms"] = med(stParallel)
	m["workload.instance_ms"] = med(stInstance)

	d := func(a, b uint64) float64 { return float64(b - a) }
	hits := d(before.svc.CacheHits, after.svc.CacheHits)
	misses := d(before.svc.CacheMisses, after.svc.CacheMisses)
	m["service.self_ms"] = median(r.serviceSelf)
	m["service.self_share"] = ratio(r.serviceSelfSum, r.servedSum)
	m["service.alloc_kb_per_op"] = ratio(float64(r.serviceAllocBytes)/1024, ops)
	m["service.cache_hit_share"] = ratio(hits, hits+misses)
	m["service.computed_per_op"] = ratio(d(before.svc.Computed, after.svc.Computed), ops)
	m["service.shed"] = d(before.svc.Shed, after.svc.Shed)
	m["service.solver_resets"] = d(before.svc.SolverResets, after.svc.SolverResets)
	m["service.session_rebuilds"] = d(before.svc.SessionRebuilds, after.svc.SessionRebuilds)

	m["front.self_ms"] = median(r.frontSelf)
	m["front.self_share"] = ratio(r.frontSelfSum, r.servedSum)
	var attempts, attemptsMax, sessions, sessionsMax float64
	for i := range after.attempts {
		a := d(before.attempts[i], after.attempts[i])
		attempts += a
		attemptsMax = max(attemptsMax, a)
	}
	if len(after.attempts) > 0 {
		for i := range after.perBackend {
			s := d(before.perBackend[i].SessionCreates, after.perBackend[i].SessionCreates)
			sessions += s
			sessionsMax = max(sessionsMax, s)
		}
	}
	m["front.attempts_per_op"] = ratio(attempts, ops)
	m["front.backend_share_max"] = ratio(attemptsMax, attempts)
	m["front.session_share_max"] = ratio(sessionsMax, sessions)
	return m
}
