package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pfcache/internal/lp"
	"pfcache/internal/service"
)

// extractFailure is the text of lp-optimal's known extraction failure
// (a 422): the LP solved, but no candidate offset gave a feasible schedule.
const extractFailure = "no candidate offset produced a feasible schedule"

// exact holds the counts a run must repeat bit for bit: the determinism
// gate compares them, and the digest of every response body, between two
// runs of one seed.
type exact struct {
	Digest          string `json:"digest"`
	Attempted       int    `json:"attempted"`
	Succeeded       int    `json:"succeeded"`
	LPSolves        int    `json:"lp_solves"`
	LPPivots        int    `json:"lp_pivots"`
	LPResolves      int    `json:"lp_resolves"`
	LPResolvePivots int    `json:"lp_resolve_pivots"`
	OptSearches     int    `json:"opt_searches"`
	OptExpanded     int    `json:"opt_expanded"`
	ExtractFailures int    `json:"extract_failures"`
}

// recorder is a minimal http.ResponseWriter, reused across ops.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *recorder) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *recorder) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// runner drives one closed-loop client through a target: it sends each op,
// waits for the reply, checks it and folds it into the run's tallies.
type runner struct {
	tg  *target
	rec recorder
	// rep replays every request through the layers (traced runs only).
	rep *replayer

	// measure is false during the warm-up.
	measure bool
	ex      exact
	digest  uint64
	// dead marks sessions whose create failed: their later ops are refused
	// by design, which counts as a failed op but not as a wrong answer.
	dead map[string]bool

	latencies  []float64     // root span per timed op, ms
	fixed      []*fixedValue // fixed value per timed op, nil where none
	violations []string
	nViolation int

	// Trace tallies (timed ops only), all in ms.
	serviceSelf, frontSelf       []float64
	servedSum, serviceSelfSum    float64
	frontSelfSum                 float64
	serviceAllocBytes            uint64
	lpVars, lpRows               []int
	lpCandidates                 []int
	optGenerated, optPrunedBound int
	optPrunedDom, optLandmark    int
	optPeakMax, optSeedOptimal   int
	replayed, replayMatched      int

	// Excluded from the timed phase: the client's own checking and
	// bookkeeping between ops.
	excluded    time.Duration
	excludedCPU time.Duration
}

func newRunner(tg *target, traced bool) *runner {
	r := &runner{tg: tg, rec: recorder{hdr: make(http.Header)}, dead: make(map[string]bool)}
	if traced {
		r.rep = newReplayer()
	}
	return r
}

func (r *runner) violate(format string, args ...any) {
	r.nViolation++
	if len(r.violations) < 8 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// do sends one op and settles its outcome.
func (r *runner) do(o *op) {
	req, err := http.NewRequest(o.method, "http://pfcache"+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.violate("building request: %v", err)
		return
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.rec.reset()
	traced := r.rep != nil
	var m0, m1 runtime.MemStats
	if traced && r.tg.front == nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	r.tg.root.ServeHTTP(&r.rec, req)
	lat := time.Since(t0)
	if traced && r.tg.front == nil {
		runtime.ReadMemStats(&m1)
	}

	x0, c0 := time.Now(), cpuTime()
	r.settle(o, lat, m1.TotalAlloc-m0.TotalAlloc)
	if r.measure {
		r.excluded += time.Since(x0)
		r.excludedCPU += cpuTime() - c0
	}
}

// settle checks one reply, folds it into the digest and tallies, and (in a
// traced run) replays it.
func (r *runner) settle(o *op, lat time.Duration, directAlloc uint64) {
	status, payload := r.rec.status, r.rec.body.Bytes()
	var spans []span
	if r.tg.spans != nil {
		spans = r.tg.spans.take()
	}
	if r.measure {
		h := fnv.New64a()
		var st [2]byte
		binary.LittleEndian.PutUint16(st[:], uint16(status))
		h.Write(st[:])
		h.Write(payload)
		r.digest += h.Sum64()
		r.ex.Attempted++
		r.latencies = append(r.latencies, ms(lat))
	}

	ok, resp, errText := r.check(o, status, payload)
	if r.measure {
		var fv *fixedValue
		if ok && resp != nil {
			if v, has := fixedOf(resp); has {
				fv = &v
			}
		}
		r.fixed = append(r.fixed, fv)
		if ok {
			r.ex.Succeeded++
		}
	}
	if r.rep == nil {
		return
	}

	// Stage replay.  A cache hit only built its instance; a close computes
	// nothing; everything else is re-executed and must match.
	r.rep.record = r.measure
	r.rep.opTime = 0
	var rr *replayResult
	switch o.kind {
	case opSchedule:
		if r.rec.hdr.Get("X-Cache") == "hit" {
			r.rep.instance(o.req)
			break
		}
		backend := 0
		if r.tg.front != nil {
			backend = backendIndex(r.rec.hdr.Get("X-Backend"))
		}
		res := r.rep.schedule(o.req, backend)
		rr = &res
	case opCreate:
		res := r.rep.create(o)
		rr = &res
	case opExtend:
		res := r.rep.extend(o)
		rr = &res
	case opClose:
		r.rep.close(o)
	}
	if !r.measure {
		return
	}
	if rr != nil {
		r.replayed++
		if err := rr.matches(status, errText, resp); err != nil {
			r.violate("%s %s: stage replay differs: %v", o.method, o.path, err)
		} else {
			r.replayMatched++
		}
	}

	root := ms(lat)
	serviceSpan, alloc := root, directAlloc
	if r.tg.front != nil {
		serviceSpan, alloc = 0, 0
		for _, s := range spans {
			serviceSpan += ms(s.dur)
			alloc += s.alloc
		}
		self := root - serviceSpan
		r.frontSelf = append(r.frontSelf, self)
		r.frontSelfSum += self
	}
	self := serviceSpan - ms(r.rep.opTime)
	r.servedSum += root
	r.serviceSelf = append(r.serviceSelf, self)
	r.serviceSelfSum += self
	r.serviceAllocBytes += alloc
}

// check validates a reply against what the op must return, tallying the
// exact counters.  It reports whether the op succeeded, the decoded schedule
// response (nil when none) and the error text of a failed reply.
func (r *runner) check(o *op, status int, payload []byte) (bool, *service.ScheduleResponse, string) {
	where := o.method + " " + o.path
	if status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(payload, &e)
		switch {
		case status == http.StatusUnprocessableEntity && strings.Contains(e.Error, extractFailure) && o.kind != opClose:
			// lp-optimal's known extraction defect: a failed op, reported
			// as such, never hidden.
			if r.measure {
				r.ex.ExtractFailures++
			}
			if o.kind == opCreate {
				r.dead[o.session] = true
			}
		case status == http.StatusNotFound && o.kind == opExtend && r.dead[o.session]:
			// An extension of a session whose create failed.
		default:
			r.violate("%s: status %d: %s", where, status, strings.TrimSpace(string(payload)))
		}
		return false, nil, e.Error
	}

	var resp *service.ScheduleResponse
	switch o.kind {
	case opSchedule:
		resp = &service.ScheduleResponse{}
		if err := json.Unmarshal(payload, resp); err != nil {
			r.violate("%s: decoding response: %v", where, err)
			return false, nil, ""
		}
	case opCreate, opExtend:
		var sr service.SessionResponse
		if err := json.Unmarshal(payload, &sr); err != nil || sr.Result == nil {
			r.violate("%s: decoding session response: %v", where, err)
			return false, nil, ""
		}
		if sr.Session != o.session || sr.Length != o.in.N() {
			r.violate("%s: session %q of length %d, want %q of length %d", where, sr.Session, sr.Length, o.session, o.in.N())
			return false, nil, ""
		}
		resp = sr.Result
	case opClose:
		var cr service.SessionCloseResponse
		if err := json.Unmarshal(payload, &cr); err != nil {
			r.violate("%s: decoding close response: %v", where, err)
			return false, nil, ""
		}
		if cr.Closed == r.dead[o.session] {
			r.violate("%s: closed=%v for a session whose create failed=%v", where, cr.Closed, r.dead[o.session])
			return false, nil, ""
		}
		return true, nil, ""
	}
	if err := checkSchedule(o.in, o.strategy(), resp); err != nil {
		r.violate("%s: %v", where, err)
		return false, resp, ""
	}
	if want, ok := fixedValues[o.key]; ok && o.key != "" {
		if got, _ := fixedOf(resp); !got.same(want) {
			r.violate("%s: %s: served %+v, the reference engines give %+v", where, o.key, got, want)
			return false, resp, ""
		}
	}
	if r.measure {
		r.tally(o, resp)
	}
	return true, resp, ""
}

// tally folds a checked response's solver and search blocks into the
// run's counts.
func (r *runner) tally(o *op, resp *service.ScheduleResponse) {
	if l := resp.LP; l != nil {
		if o.kind == opExtend {
			r.ex.LPResolves++
			r.ex.LPResolvePivots += l.Iterations
		} else {
			r.ex.LPSolves++
			r.ex.LPPivots += l.Iterations
		}
		r.lpVars = append(r.lpVars, l.Variables)
		r.lpRows = append(r.lpRows, l.Constraints)
		r.lpCandidates = append(r.lpCandidates, l.Candidates)
	}
	if s := resp.Opt; s != nil {
		r.ex.OptSearches++
		r.ex.OptExpanded += s.Expanded
		r.optGenerated += s.Generated
		r.optPrunedBound += s.PrunedByBound
		r.optPrunedDom += s.PrunedByDominance
		r.optLandmark += s.LandmarkHits
		r.optPeakMax = max(r.optPeakMax, s.PeakTable)
		if s.SeedOptimal {
			r.optSeedOptimal++
		}
	}
}

// counters is a snapshot of the program's public counters over a fleet.
type counters struct {
	svc        service.StatsResponse // summed over the servers
	perBackend []service.StatsResponse
	attempts   []uint64 // front attempts per backend
	lp         lp.Counters
}

func snapshot(tg *target) counters {
	var c counters
	for _, s := range tg.servers {
		st := s.Stats()
		c.perBackend = append(c.perBackend, st)
		c.svc.CacheHits += st.CacheHits
		c.svc.CacheMisses += st.CacheMisses
		c.svc.Computed += st.Computed
		c.svc.Shed += st.Shed
		c.svc.SolverResets += st.SolverResets
		c.svc.SessionRebuilds += st.SessionRebuilds
	}
	c.lp = lp.StatsSnapshot()
	if tg.front != nil {
		for _, b := range tg.front.Stats(context.Background()).Backends {
			c.attempts = append(c.attempts, b.Requests)
		}
	}
	return c
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
