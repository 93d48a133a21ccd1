package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"pfcache/internal/lp"
	"pfcache/internal/lpmodel"
	"pfcache/internal/opt"
	"pfcache/internal/service"
)

func TestTailChooser(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct        float64
		value      float64
		wantBeyond int
	}{
		{n: 1000, pct: 99, value: 990, wantBeyond: 10},
		{n: 999, pct: 95, value: 950, wantBeyond: 49},
		{n: 150, pct: 90, value: 135, wantBeyond: 15},
		{n: 100, pct: 90, value: 90, wantBeyond: 10},
		{n: 99, pct: 50, value: 50, wantBeyond: 49},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v, pct, beyond := tail(sorted)
		if v != tc.value || pct != tc.pct || beyond != tc.wantBeyond {
			t.Errorf("n=%d: tail = p%g %g with %d beyond, want p%g %g with %d beyond",
				tc.n, pct, v, beyond, tc.pct, tc.value, tc.wantBeyond)
		}
	}
}

// opDigest renders an op list as the bytes the client would send.
func opDigest(ops []*op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteString(o.method + " " + o.path + "\n")
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestOpListsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		n := w.opCount(1)
		warm1, timed1, err := w.build(5, n)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		warm2, timed2, err := w.build(5, n)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		warm3, timed3, err := w.build(6, n)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(timed1) < n {
			t.Errorf("%s: %d timed ops, want at least %d", w.name, len(timed1), n)
		}
		if !bytes.Equal(opDigest(timed1), opDigest(timed2)) {
			t.Errorf("%s: one seed gave two different op lists", w.name)
		}
		if bytes.Equal(opDigest(timed1), opDigest(timed3)) {
			t.Errorf("%s: two seeds gave the same op list", w.name)
		}
		if !bytes.Equal(opDigest(warm1), opDigest(warm2)) || !bytes.Equal(opDigest(warm1), opDigest(warm3)) {
			t.Errorf("%s: the warm-up depends on the seed", w.name)
		}
		warmKeys := make(map[string]bool)
		for _, o := range warm1 {
			if o.kind == opSchedule {
				warmKeys[string(o.body)] = true
			}
		}
		for _, o := range timed1 {
			if o.kind == opSchedule && warmKeys[string(o.body)] {
				t.Errorf("%s: timed op %s repeats a warm-up instance", w.name, o.body)
			}
		}
	}
}

func TestCheckRejectsTamperedSchedule(t *testing.T) {
	for _, strategy := range []string{"lp-optimal", "opt", "aggressive"} {
		req := &service.ScheduleRequest{
			Strategy: strategy,
			Workload: &service.WorkloadSpec{Kind: "uniform", N: 22, Blocks: 10, Seed: 3},
			K:        4, F: 4, Disks: 2, Assign: "stripe", IncludeSchedule: true,
		}
		o, err := scheduleOp(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := service.ScheduleBody(req, oneShotLP)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		decode := func() *service.ScheduleResponse {
			var resp service.ScheduleResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			return &resp
		}
		if err := checkSchedule(o.in, strategy, decode()); err != nil {
			t.Fatalf("%s: the served schedule fails the check: %v", strategy, err)
		}
		if len(decode().Schedule) == 0 {
			t.Fatalf("%s: served an empty schedule; the tampering below needs fetches", strategy)
		}
		tamper := map[string]func(*service.ScheduleResponse){
			"stall":        func(r *service.ScheduleResponse) { r.Stall++ },
			"elapsed":      func(r *service.ScheduleResponse) { r.Elapsed-- },
			"extra cache":  func(r *service.ScheduleResponse) { r.ExtraCache++ },
			"dropped":      func(r *service.ScheduleResponse) { r.Schedule = r.Schedule[1:] },
			"wrong block":  func(r *service.ScheduleResponse) { r.Schedule[0].Block = 999 },
			"strategy":     func(r *service.ScheduleResponse) { r.Strategy = "demand" },
			"late fetch":   func(r *service.ScheduleResponse) { r.Schedule[0].After = 21 },
			"fetch counts": func(r *service.ScheduleResponse) { r.FetchCount++ },
		}
		names := make([]string, 0, len(tamper))
		for name := range tamper {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			resp := decode()
			tamper[name](resp)
			if err := checkSchedule(o.in, strategy, resp); err == nil {
				t.Errorf("%s: the check accepted a schedule with a tampered %s", strategy, name)
			}
		}
	}
}

// TestStageReplayMatchesServed serves short op lists of every workload and
// checks that the stage replay reproduces every served response: stall,
// elapsed time, LP pivots, search expansions, and the error of a failed
// request.
func TestStageReplayMatchesServed(t *testing.T) {
	for _, w := range workloads {
		n := 6
		if w.front {
			n = 120
		}
		warm, timed, err := w.build(3, n)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tg, err := newTarget(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := newRunner(tg, true)
		for _, o := range warm {
			r.do(o)
		}
		if tg.spans != nil {
			tg.spans.enable()
		}
		r.measure = true
		for _, o := range timed {
			r.do(o)
		}
		tg.stop()
		if r.nViolation > 0 {
			t.Errorf("%s: %d violations: %v", w.name, r.nViolation, r.violations)
		}
		if r.replayed == 0 || r.replayMatched != r.replayed {
			t.Errorf("%s: replay matched %d of %d served responses", w.name, r.replayMatched, r.replayed)
		}
		if w.front && len(r.frontSelf) != len(timed) {
			t.Errorf("%s: %d front spans for %d ops", w.name, len(r.frontSelf), len(timed))
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var manifest struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range manifest.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	same := func(kind string, ms []metric, defs []metricDef) {
		var got, want []metric
		got = ms
		for _, d := range defs {
			want = append(want, metric{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\nprogram reports\n%v", kind, got, want)
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}

var updateFixed = flag.Bool("update-fixed", false, "rewrite fixed_values.json from the reference engines")

// referenceValue computes an instance's fixed value with the reference
// engines, which share no layer with the served ones: for opt the blind
// uniform-cost search (no heuristic, incumbent bound, landmarks or
// dominance), for the LP relaxation a cold revised simplex with Dantzig
// pricing over a product-form basis (served solves price by steepest edge
// over an LU basis, warm-started under the cascade).
func referenceValue(o *op) (fixedValue, error) {
	switch o.req.Strategy {
	case "opt":
		res, err := opt.Optimal(o.in, opt.Options{Bound: opt.BoundNone, NoHeuristic: true, MaxStates: 1 << 26})
		if err != nil {
			return fixedValue{}, err
		}
		return fixedValue{Stall: res.Stall, Elapsed: res.Elapsed}, nil
	case "lp-optimal":
		lb, err := lpmodel.LowerBound(o.in, lp.Options{Pricing: lp.PricingDantzig, Basis: lp.BasisEta})
		return fixedValue{LowerBound: lb}, err
	}
	return fixedValue{}, fmt.Errorf("no reference engine for %q", o.req.Strategy)
}

// fixedValueOps are the one-shot ops of a run of the manifest's length whose
// answers fixed_values.json must cover: every instance of lp-serve and
// opt-serve, warm-up included (the set does not depend on the seed).
func fixedValueOps(t *testing.T) []*op {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var ops []*op
	for _, w := range workloads {
		if w.front {
			continue
		}
		warm, timed, err := w.build(1, w.opCount(manifest.RunSeconds))
		if err != nil {
			t.Fatal(err)
		}
		ops = append(append(ops, warm...), timed...)
	}
	return ops
}

// TestFixedValues keeps fixed_values.json true to the reference engines and
// complete for the benchmark's run length.  Recomputing every entry takes
// minutes, so by default it recomputes one instance in eight;
// -update-fixed recomputes them all and rewrites the file.
func TestFixedValues(t *testing.T) {
	ops := fixedValueOps(t)
	if *updateFixed {
		values := make(map[string]fixedValue, len(ops))
		for _, o := range ops {
			v, err := referenceValue(o)
			if err != nil {
				t.Fatalf("%s: %v", o.key, err)
			}
			values[o.key] = v
		}
		b, err := json.MarshalIndent(values, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("fixed_values.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(fixedValues) != len(ops) {
		t.Errorf("fixed_values.json has %d entries, the run covers %d instances; regenerate it with -update-fixed", len(fixedValues), len(ops))
	}
	for i, o := range ops {
		want, ok := fixedValues[o.key]
		if !ok {
			t.Errorf("fixed_values.json has no entry for %s", o.key)
			continue
		}
		if i%8 != 0 {
			continue
		}
		got, err := referenceValue(o)
		if err != nil {
			t.Fatalf("%s: %v", o.key, err)
		}
		if !got.same(want) {
			t.Errorf("%s: reference engines give %+v, fixed_values.json %+v", o.key, got, want)
		}
	}
}

// TestExtractFailureCounts serves E7's D=2, n=40 instance of generator seed
// 982, on which lp-optimal's schedule extraction fails (a 422), and checks
// that the run counts it as a failed op and an extraction failure, not as a
// wrong answer and not as a success.
func TestExtractFailureCounts(t *testing.T) {
	w, err := workloadByName("lp-serve")
	if err != nil {
		t.Fatal(err)
	}
	o, err := scheduleOp(&service.ScheduleRequest{
		Strategy: "lp-optimal",
		Workload: &service.WorkloadSpec{Kind: "uniform", N: e7Large.n, Blocks: e7Large.blocks, Seed: 982},
		K:        e7Large.k, F: e7Large.f, Disks: 2, Assign: "stripe", IncludeSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := newTarget(w)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.stop()
	r := newRunner(tg, false)
	r.measure = true
	r.do(o)
	if r.nViolation != 0 || r.ex.Attempted != 1 || r.ex.Succeeded != 0 || r.ex.ExtractFailures != 1 || r.fixed[0] != nil {
		t.Errorf("an extraction failure settled as %+v, fixed value %v, violations %v", r.ex, r.fixed[0], r.violations)
	}
}

// TestFixedValueMismatchFails serves one instance of each one-shot workload
// with its fixed value altered, as a build that lost optimality would look,
// and checks that the run reports a wrong answer.
func TestFixedValueMismatchFails(t *testing.T) {
	for _, name := range []string{"lp-serve", "opt-serve"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, timed, err := w.build(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := timed[0]
		want, ok := fixedValues[o.key]
		if !ok {
			t.Fatalf("%s: no fixed value for %s", name, o.key)
		}
		wrong := want
		wrong.Stall++
		wrong.Elapsed++
		wrong.LowerBound += 0.5
		fixedValues[o.key] = wrong
		tg, err := newTarget(w)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(tg, false)
		r.measure = true
		r.do(o)
		tg.stop()
		fixedValues[o.key] = want
		if r.nViolation != 1 || r.ex.Succeeded != 0 {
			t.Errorf("%s: a response off its fixed value settled as %+v with violations %v", name, r.ex, r.violations)
		}
	}
}
