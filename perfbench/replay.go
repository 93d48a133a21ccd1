package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"pfcache/internal/core"
	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/parallel"
	"pfcache/internal/service"
	"pfcache/internal/sim"
	"pfcache/internal/single"
)

// stage is one layer call of a served request, as the stage replay times it.
type stage int

const (
	stInstance stage = iota // ScheduleRequest.BuildInstance
	stBuild                 // ModelBatch.Model, or lpmodel.Build for sessions
	stSolve                 // Model.SolveBatch, or a session's cold SolveWith
	stExtend                // Model.Extend
	stResolve               // Model.SolveIncremental
	stExtract               // lpmodel.Extract
	stOpt                   // opt.Optimal
	stSingle                // a single-disk greedy Run
	stParallel              // a parallel-disk greedy Run
	stSim                   // sim.Run of the extracted or greedy schedule
	numStages
)

// Server solver configurations the replay mirrors: one-shot lp-optimal
// solves run warm on the shard's batch under the verification cascade
// (service.ComputeSchedule), session solves run cold or incrementally on the
// session's own solver under the cascade.
var (
	oneShotLP = lp.Options{WarmStart: true, Cascade: true}
	sessionLP = lp.Options{Cascade: true}
)

// lpWork tallies what the LP solves of one kind cost, from the solver's
// process-wide counters and the allocator.
type lpWork struct {
	calls, refactors, warmStarts, symbolicReuses int
	allocBytes                                   uint64
}

// replayer re-executes each served request through the public layer
// functions, in the server's order and with the server's options, and times
// every layer call.  It mirrors the server state those calls depend on: one
// ModelBatch per (backend, shard), picked by the instance fingerprint as the
// server picks its shard, and one model and solver per live session.  With
// that state the replay reproduces every served response exactly, which is
// what lets its stage times stand in for the time each stage took inside
// the served request.
type replayer struct {
	batches  map[int]*lpmodel.ModelBatch
	sessions map[string]*replaySession

	// record is false during the warm-up: the state advances, nothing counts.
	record bool
	// opTime is the replayed stage time of the current op.
	opTime time.Duration
	calls  [numStages][]float64 // per-call milliseconds

	solve         lpWork // one-shot and cold solves
	optSearches   int
	optAllocBytes uint64
}

type replaySession struct {
	base   *core.Instance
	ext    []core.BlockID
	regrow *service.ScheduleRequest
	model  *lpmodel.Model
	solver *lp.Solver
}

// replayResult is what a replayed request computed, in the terms the
// served response reports it.
type replayResult struct {
	err              error
	stall, elapsed   int
	iterations       int
	expanded         int
	lpBlock, optHeld bool
}

func newReplayer() *replayer {
	return &replayer{batches: make(map[int]*lpmodel.ModelBatch), sessions: make(map[string]*replaySession)}
}

// time runs fn as one call of stage s.
func (r *replayer) time(s stage, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.opTime += d
	if r.record {
		r.calls[s] = append(r.calls[s], ms(d))
	}
}

// solveTimed runs a one-shot or cold LP solve as one stSolve call and
// tallies its refactorizations, warm start, symbolic reuses and allocation.
func (r *replayer) solveTimed(fn func()) {
	var m0, m1 runtime.MemStats
	c0 := lp.StatsSnapshot()
	runtime.ReadMemStats(&m0)
	r.time(stSolve, fn)
	runtime.ReadMemStats(&m1)
	c1 := lp.StatsSnapshot()
	w := &r.solve
	if r.record {
		w.calls++
		w.refactors += int(c1.Refactorizations - c0.Refactorizations)
		w.warmStarts += int(c1.WarmStarts - c0.WarmStarts)
		w.symbolicReuses += int(c1.SymbolicReuses - c0.SymbolicReuses)
		w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
}

// numericFailure mirrors the service's classification of solver failures
// that taint a shard's batch.
func numericFailure(err error) bool {
	var (
		ce *lp.CascadeExhaustedError
		pb *lp.PivotBudgetError
		ve *lp.VerificationError
	)
	return errors.As(err, &ce) || errors.As(err, &pb) || errors.As(err, &ve)
}

// instance replays the handler's ScheduleRequest.BuildInstance, which is
// all a request answered from the cache computes.
func (r *replayer) instance(req *service.ScheduleRequest) (in *core.Instance, err error) {
	r.time(stInstance, func() { in, err = req.BuildInstance() })
	return in, err
}

// schedule replays a one-shot schedule computation served by backend.
func (r *replayer) schedule(req *service.ScheduleRequest, backend int) replayResult {
	in, err := r.instance(req)
	if err != nil {
		return replayResult{err: err}
	}
	var out replayResult
	var sched *core.Schedule
	switch req.Strategy {
	case "opt":
		var res *opt.Result
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r.time(stOpt, func() { res, err = opt.Optimal(in, opt.Options{}) })
		runtime.ReadMemStats(&m1)
		if r.record {
			r.optSearches++
			r.optAllocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		if err != nil {
			return replayResult{err: err}
		}
		sched, out.expanded, out.optHeld = res.Schedule, res.StatesExpanded, true
	case "lp-optimal":
		key := backend*serverShards + int(in.Fingerprint()%serverShards)
		mb := r.batches[key]
		if mb == nil {
			mb = lpmodel.NewModelBatch()
			r.batches[key] = mb
		}
		var m *lpmodel.Model
		r.time(stBuild, func() { m, err = mb.Model(in) })
		if err != nil {
			return replayResult{err: err}
		}
		var frac *lpmodel.Fractional
		r.solveTimed(func() { frac, err = m.SolveBatch(mb.LP(), oneShotLP) })
		if err != nil {
			if numericFailure(err) {
				r.batches[key] = lpmodel.NewModelBatch()
			}
			return replayResult{err: err}
		}
		var res *lpmodel.PlanResult
		res, err = r.extract(m, frac)
		if frac.Downgrades > 0 {
			// The shard discards a batch whose solve needed the cascade.
			r.batches[key] = lpmodel.NewModelBatch()
		}
		if err != nil {
			return replayResult{err: err}
		}
		sched, out.iterations, out.lpBlock = res.Schedule, res.LPIterations, true
	default:
		if sched, err = r.greedy(in, req.Strategy); err != nil {
			return replayResult{err: err}
		}
	}
	return r.simulate(in, sched, out)
}

// greedy replays the service's strategy lookup: single-disk instances try
// the single-disk registry first, everything else the parallel suite.
func (r *replayer) greedy(in *core.Instance, strategy string) (sched *core.Schedule, err error) {
	if in.Disks == 1 {
		if a, lerr := single.ByName(strategy); lerr == nil {
			r.time(stSingle, func() { sched, err = a.Run(in) })
			return sched, err
		}
	}
	a, err := parallel.ByName(strategy)
	if err != nil {
		return nil, err
	}
	r.time(stParallel, func() { sched, err = a.Run(in) })
	return sched, err
}

func (r *replayer) extract(m *lpmodel.Model, frac *lpmodel.Fractional) (res *lpmodel.PlanResult, err error) {
	r.time(stExtract, func() { res, err = lpmodel.Extract(m, frac) })
	return res, err
}

// simulate replays the response's final execution of the schedule.
func (r *replayer) simulate(in *core.Instance, sched *core.Schedule, out replayResult) replayResult {
	var res *sim.Result
	var err error
	r.time(stSim, func() { res, err = sim.Run(in, sched, sim.Options{}) })
	if err != nil {
		return replayResult{err: err}
	}
	out.stall, out.elapsed = res.Stall, res.Elapsed
	return out
}

// rebuild replays a session's cold path: the instance re-derived from the
// full transcript (plus extra), a fresh model and a fresh solver.
func (r *replayer) rebuild(sess *replaySession, extra []core.BlockID) (*lpmodel.Fractional, error) {
	rg := *sess.regrow
	rg.Seq = make([]int, 0, len(sess.base.Seq)+len(sess.ext)+len(extra))
	for _, seq := range [][]core.BlockID{sess.base.Seq, sess.ext, extra} {
		for _, b := range seq {
			rg.Seq = append(rg.Seq, int(b))
		}
	}
	in, err := r.instance(&rg)
	if err != nil {
		return nil, err
	}
	var m *lpmodel.Model
	r.time(stBuild, func() { m, err = lpmodel.Build(in) })
	if err != nil {
		return nil, err
	}
	solver := lp.NewSolver()
	var frac *lpmodel.Fractional
	r.solveTimed(func() { frac, err = m.SolveWith(solver, sessionLP) })
	if err != nil {
		return nil, err
	}
	sess.model, sess.solver = m, solver
	return frac, nil
}

// respond replays the session response: extraction plus execution.
func (r *replayer) respond(m *lpmodel.Model, frac *lpmodel.Fractional) replayResult {
	res, err := r.extract(m, frac)
	if err != nil {
		return replayResult{err: err}
	}
	return r.simulate(m.In, res.Schedule, replayResult{iterations: res.LPIterations, lpBlock: true})
}

// create replays POST /v1/session.  The session is kept only when the
// create succeeds, as the server keeps it.
func (r *replayer) create(o *op) replayResult {
	in, err := r.instance(o.req)
	if err != nil {
		return replayResult{err: err}
	}
	rg := *o.req
	rg.Seq, rg.Workload = nil, nil
	sess := &replaySession{base: in.Clone(), regrow: &rg}
	frac, err := r.rebuild(sess, nil)
	if err != nil {
		return replayResult{err: err}
	}
	out := r.respond(sess.model, frac)
	if out.err == nil {
		r.sessions[o.session] = sess
	}
	return out
}

// errNoSession stands for the 404 a request for an unknown session gets.
var errNoSession = errors.New("unknown session")

// extend replays POST /v1/session/{id}/extend: in-place growth and a dual
// re-solve, or a cold rebuild when the growth or the re-solve cannot be
// trusted.
func (r *replayer) extend(o *op) replayResult {
	sess := r.sessions[o.session]
	if sess == nil {
		return replayResult{err: errNoSession}
	}
	var frac *lpmodel.Fractional
	var err error
	r.time(stExtend, func() { err = sess.model.Extend(o.extend...) })
	if err != nil {
		if !errors.Is(err, lpmodel.ErrExtendRebuild) || sess.regrow == nil {
			return replayResult{err: err}
		}
		if frac, err = r.rebuild(sess, o.extend); err != nil {
			delete(r.sessions, o.session)
			return replayResult{err: err}
		}
		sess.ext = append(sess.ext, o.extend...)
	} else {
		sess.ext = append(sess.ext, o.extend...)
		r.time(stResolve, func() { frac, err = sess.model.SolveIncremental(sess.solver, sessionLP) })
		switch {
		case err == nil && frac.Downgrades == 0:
		case err != nil && !numericFailure(err):
			return replayResult{err: err}
		default:
			if frac, err = r.rebuild(sess, nil); err != nil {
				delete(r.sessions, o.session)
				return replayResult{err: err}
			}
		}
	}
	return r.respond(sess.model, frac)
}

// close replays DELETE /v1/session/{id}.
func (r *replayer) close(o *op) {
	delete(r.sessions, o.session)
}

// matches reports whether the replay reproduced the served outcome: the
// same error text for a failed request, and the same stall, elapsed time,
// LP pivots and search expansions for a served schedule.
func (rr replayResult) matches(status int, errText string, resp *service.ScheduleResponse) error {
	if status != 200 {
		if rr.err == nil {
			return fmt.Errorf("served %d (%s) but the replay succeeded", status, errText)
		}
		if status == 404 && errors.Is(rr.err, errNoSession) {
			return nil
		}
		if rr.err.Error() != errText {
			return fmt.Errorf("served %d (%s) but the replay failed with %v", status, errText, rr.err)
		}
		return nil
	}
	if rr.err != nil {
		return fmt.Errorf("served a schedule but the replay failed: %v", rr.err)
	}
	if rr.stall != resp.Stall || rr.elapsed != resp.Elapsed {
		return fmt.Errorf("replay stall/elapsed %d/%d, served %d/%d", rr.stall, rr.elapsed, resp.Stall, resp.Elapsed)
	}
	if (resp.LP != nil) != rr.lpBlock || (resp.LP != nil && resp.LP.Iterations != rr.iterations) {
		return fmt.Errorf("replay LP pivots %d, served %+v", rr.iterations, resp.LP)
	}
	if (resp.Opt != nil) != rr.optHeld || (resp.Opt != nil && resp.Opt.Expanded != rr.expanded) {
		return fmt.Errorf("replay expanded %d states, served %+v", rr.expanded, resp.Opt)
	}
	return nil
}
