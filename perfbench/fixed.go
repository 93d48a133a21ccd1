package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pfcache/internal/service"
)

// fixedValue is what the mathematics fixes about one served answer, however
// the program computes it: the optimal stall and elapsed time of an opt
// schedule, and the optimal value of the LP relaxation behind an lp-optimal
// schedule (its lower bound).  checkSchedule only shows that a response is
// true to its own schedule; these values catch one that is feasible and
// self-consistent but no longer optimal.
type fixedValue struct {
	Stall      int     `json:"stall,omitempty"`
	Elapsed    int     `json:"elapsed,omitempty"`
	LowerBound float64 `json:"lower_bound,omitempty"`
}

// fixedOf returns the fixed value of a checked response, if it has one.
func fixedOf(resp *service.ScheduleResponse) (fixedValue, bool) {
	switch {
	case resp.Opt != nil:
		return fixedValue{Stall: resp.Stall, Elapsed: resp.Elapsed}, true
	case resp.LP != nil:
		return fixedValue{LowerBound: resp.LP.LowerBound}, true
	}
	return fixedValue{}, false
}

// same reports whether v equals want, the LP value up to rounding.
func (v fixedValue) same(want fixedValue) bool {
	return v.Stall == want.Stall && v.Elapsed == want.Elapsed &&
		math.Abs(v.LowerBound-want.LowerBound) <= 1e-6*max(1, math.Abs(want.LowerBound))
}

// fixedKey names a one-shot request by the instance it describes, so that
// the values below follow the instance whatever order a seed sends it in.
func fixedKey(req *service.ScheduleRequest) string {
	w := req.Workload
	return fmt.Sprintf("%s %s n=%d blocks=%d seed=%d k=%d f=%d D=%d",
		req.Strategy, w.Kind, w.N, w.Blocks, w.Seed, req.K, req.F, req.Disks)
}

// fixedValuesJSON holds the fixed value of every lp-serve and opt-serve
// instance (warm-up and timed) of a run of BENCHMARK.json's length, computed
// by reference engines that share no layer with the served ones (see
// referenceValue); the TestFixedValues self-test checks and regenerates it.  Every run compares
// each response it covers, so a later build that serves a suboptimal opt
// schedule or a wrong LP bound fails the run.
//
//go:embed fixed_values.json
var fixedValuesJSON []byte

var fixedValues = func() map[string]fixedValue {
	m := make(map[string]fixedValue)
	if err := json.Unmarshal(fixedValuesJSON, &m); err != nil {
		panic("fixed_values.json: " + err.Error())
	}
	return m
}()

// recordPath is where the runs of one (workload, seed, run length) keep a
// record under .bench_build; tag tells the records apart.
func recordPath(workload string, seed int64, seconds int, tag string) string {
	return filepath.Join(".bench_build", "records", fmt.Sprintf("%s-seed%d-%ds-%s.json", workload, seed, seconds, tag))
}

// readOrWriteRecord loads the record at path into want and reports true, or,
// when there is none yet, writes got there and reports false.  A record that
// cannot be written is only noted: the gate then starts with the next run.
func readOrWriteRecord(path string, got, want any) bool {
	if prev, err := os.ReadFile(path); err == nil && json.Unmarshal(prev, want) == nil {
		return true
	}
	b, _ := json.Marshal(got)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: not recording:", err)
	} else if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: not recording:", err)
	}
	return false
}

// inputDigest identifies an op list by the requests it sends.
func inputDigest(ops []*op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
		h.Write(o.body)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// gateFixed holds every build to the fixed values of the first run of the
// same timed op list (workload, seed and run length, keyed by the digest of
// the requests) in this directory; got has one entry per timed op.  The
// record is not keyed by the build: whatever the code, the op at one index
// must keep its optimal stall or LP value.  An op that failed in one of the
// two runs has no value there and is not compared, so a repaired extraction
// failure is not a mismatch.
func gateFixed(workload string, seed int64, seconds int, inputs string, got []*fixedValue) []string {
	var want []*fixedValue
	if !readOrWriteRecord(recordPath(workload, seed, seconds, "fixed-"+inputs), got, &want) {
		return nil
	}
	var problems []string
	mismatched := 0
	for i := range min(len(got), len(want)) {
		if got[i] != nil && want[i] != nil && !got[i].same(*want[i]) {
			if mismatched++; mismatched <= 8 {
				problems = append(problems, fmt.Sprintf("fixed values: timed op %d gave %+v, an earlier run of these inputs %+v", i, *got[i], *want[i]))
			}
		}
	}
	if mismatched > 8 {
		problems = append(problems, fmt.Sprintf("fixed values: %d more timed ops differ", mismatched-8))
	}
	return problems
}
