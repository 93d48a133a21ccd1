// Command perfbench is the served-request benchmark of pfcache.  It drives
// the service in-process from one closed-loop client — each request is sent
// when the previous reply has arrived — over three traffic mixes:
//
//   - lp-serve: Theorem 4's lp-optimal schedules on E7-family instances,
//     straight into service.Server.ServeHTTP, every request a cache miss;
//   - opt-serve: the exact search (strategy opt) on the E7 classes where it
//     does real work, the same path;
//   - front-mix: front.Front.ServeHTTP over three backends on loopback TCP,
//     lp-optimal planning sessions interleaved with cacheable greedy reads.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload lp-serve --seed 1 --seconds 10 --trace 0
//
// Each run measures in child processes of its own.  With --trace 0 it runs
// the op list once, timed and untraced, and four more times up to the first
// timed op for the set-up time, and prints the end-to-end metrics.  With --trace 1
// it runs the op list untraced and then traced, with a stage replay of every
// request through the public layer functions, and prints the per-layer
// table.  Every run checks every returned schedule, and every optimal
// stall and LP value against fixed_values.json and against earlier runs of
// the same op list; the last line of standard output is one JSON object:
// correct, attempted, failed, metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// runBudget bounds a whole run, children included.
const runBudget = 170 * time.Second

// setupRuns is how many times a --trace 0 run sets up; setup_s is their
// median.
const setupRuns = 5

func main() {
	workloadName := flag.String("workload", "", "traffic mix: lp-serve, opt-serve or front-mix")
	seed := flag.Int64("seed", 1, "seed the op list is generated from")
	seconds := flag.Int("seconds", 10, "run length; fixes the op count")
	trace := flag.Int("trace", 0, "1 for the traced run and its per-layer metrics")
	child := flag.String("child", "", "internal: run one pass in this process (timed, setup, untraced, traced)")
	startNS := flag.Int64("start-ns", 0, "internal: wall clock at which the parent started this process")
	flag.Parse()

	w, err := workloadByName(*workloadName)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		res, err := runPass(*child, w, *seed, *seconds, time.Unix(0, *startNS))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		json.NewEncoder(os.Stdout).Encode(res)
		return
	}
	ok, err := runParent(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// passResult is what one child pass reports to the parent.
type passResult struct {
	Mode       string   `json:"mode"`
	SetupS     float64  `json:"setup_s"`
	Exact      exact    `json:"exact"`
	Violations int      `json:"violations"`
	Problems   []string `json:"problems,omitempty"`
	// Inputs is a digest of the timed op list; Fixed has the fixed value of
	// each timed op (nil where it has none).
	Inputs string        `json:"inputs"`
	Fixed  []*fixedValue `json:"fixed"`

	P50Ms         float64 `json:"p50_ms"`
	TailMs        float64 `json:"tail_ms"`
	TailPct       float64 `json:"tail_pct"`
	TailBeyond    int     `json:"tail_beyond"`
	TimedS        float64 `json:"timed_s"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CPUMsPerReq   float64 `json:"cpu_ms_per_req"`
	MemPeakMB     float64 `json:"mem_peak_mb"`

	CascadeFallbacks uint64             `json:"cascade_fallbacks"`
	VerifyFailures   uint64             `json:"verify_failures"`
	Layers           map[string]float64 `json:"layers,omitempty"`
	Replayed         int                `json:"replayed"`
	ReplayMatched    int                `json:"replay_matched"`
}

// runPass runs one pass of the workload in this process: set-up (target,
// op list, warm-up), then, unless mode is "setup", the timed ops.
func runPass(mode string, w *workload, seed int64, seconds int, start time.Time) (*passResult, error) {
	traced := mode == "traced"
	switch mode {
	case "timed", "setup", "untraced", "traced":
	default:
		return nil, fmt.Errorf("unknown pass %q", mode)
	}
	warm, timed, err := w.build(seed, w.opCount(seconds))
	if err != nil {
		return nil, fmt.Errorf("building the op list: %w", err)
	}
	tg, err := newTarget(w)
	if err != nil {
		return nil, fmt.Errorf("starting the target: %w", err)
	}
	defer tg.stop()

	r := newRunner(tg, traced)
	for _, o := range warm {
		r.do(o)
	}
	runtime.GC()
	res := &passResult{Mode: mode}
	if mode == "setup" {
		res.SetupS = time.Since(start).Seconds()
		res.Violations, res.Problems = r.nViolation, r.violations
		return res, nil
	}

	before := snapshot(tg)
	if traced && tg.spans != nil {
		tg.spans.take()
		tg.spans.enable()
	}
	r.measure = true
	res.SetupS = time.Since(start).Seconds()
	t0, c0 := time.Now(), cpuTime()
	for _, o := range timed {
		r.do(o)
	}
	wall := time.Since(t0) - r.excluded
	cpu := cpuTime() - c0 - r.excludedCPU
	after := snapshot(tg)

	r.ex.Digest = strconv.FormatUint(r.digest, 16)
	res.Exact = r.ex
	res.Inputs, res.Fixed = inputDigest(timed), r.fixed
	res.Violations, res.Problems = r.nViolation, r.violations
	sorted := append([]float64(nil), r.latencies...)
	sort.Float64s(sorted)
	res.P50Ms, _ = percentile(sorted, 50)
	res.TailMs, res.TailPct, res.TailBeyond = tail(sorted)
	res.TimedS = wall.Seconds()
	res.ThroughputRPS = float64(len(timed)) / wall.Seconds()
	res.CPUMsPerReq = ms(cpu) / float64(len(timed))
	res.MemPeakMB = peakRSSMiB()
	res.CascadeFallbacks = after.lp.CascadeFallbacks - before.lp.CascadeFallbacks
	res.VerifyFailures = after.lp.VerifyFailures - before.lp.VerifyFailures
	if traced {
		res.Layers = layerMetrics(r, before, after)
		res.Replayed, res.ReplayMatched = r.replayed, r.replayMatched
	}
	return res, nil
}

// runParent runs the passes of one benchmark run as child processes,
// applies the determinism gate and prints the result.  It reports whether
// the run was correct.
func runParent(w *workload, seed int64, seconds int, traced bool) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	pass := func(mode string) (*passResult, error) {
		start := time.Now()
		cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", w.name,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
			"-start-ns", strconv.FormatInt(start.UnixNano(), 10))
		cmd.Stderr = os.Stderr
		cmd.WaitDelay = 5 * time.Second
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", mode, err)
		}
		var res passResult
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return nil, fmt.Errorf("%s pass: reading its result: %w", mode, err)
		}
		return &res, nil
	}

	probeBefore := hostProbe()
	var passes []*passResult
	modes := []string{"timed"}
	for range setupRuns - 1 {
		modes = append(modes, "setup")
	}
	if traced {
		modes = []string{"untraced", "traced"}
	}
	for _, mode := range modes {
		res, err := pass(mode)
		if err != nil {
			return false, err
		}
		passes = append(passes, res)
	}
	probeAfter := hostProbe()
	first := passes[0]

	var problems []string
	for _, p := range passes {
		for _, v := range p.Problems {
			problems = append(problems, p.Mode+": "+v)
		}
		if p.Violations > len(p.Problems) {
			problems = append(problems, fmt.Sprintf("%s: %d more violations", p.Mode, p.Violations-len(p.Problems)))
		}
	}
	if traced && passes[1].Exact != first.Exact {
		problems = append(problems, fmt.Sprintf("determinism gate: untraced run %+v, traced run %+v", first.Exact, passes[1].Exact))
	}
	if err := gateRecord(self, w.name, seed, seconds, first.Exact); err != nil {
		problems = append(problems, err.Error())
	}
	problems = append(problems, gateFixed(w.name, seed, seconds, first.Inputs, first.Fixed)...)

	fmt.Printf("workload %s, seed %d, %d ops in %.1f s timed (run length %d s), trace %v\n",
		w.name, seed, first.Exact.Attempted, first.TimedS, seconds, traced)
	fmt.Printf("host probe (diagnostic only): arithmetic loop %.1f ms before, %.1f ms after\n", probeBefore, probeAfter)
	fmt.Printf("exact: %+v\n", first.Exact)

	metrics := make(map[string]any)
	put := func(name string, v float64) {
		metrics[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	if traced {
		tr := passes[1]
		if tr.ReplayMatched != tr.Replayed {
			problems = append(problems, fmt.Sprintf("stage replay matched %d of %d served responses", tr.ReplayMatched, tr.Replayed))
		}
		layers := tr.Layers
		layers["lp.cascade_fallbacks"] = float64(first.CascadeFallbacks)
		layers["lp.verify_failures"] = float64(first.VerifyFailures)
		layers["trace.overhead_share"] = ratio(tr.P50Ms, first.P50Ms) - 1
		fmt.Printf("stage replay reproduced %d of %d served responses\n", tr.ReplayMatched, tr.Replayed)
		fmt.Printf("tracing overhead: ServeHTTP median %.4f ms traced, %.4f ms untraced\n", tr.P50Ms, first.P50Ms)
		printLayers(os.Stdout, layers)
		for _, d := range perLayer {
			put(d.name, layers[d.name])
		}
	} else {
		setups := make([]float64, len(passes))
		for i, p := range passes {
			setups[i] = p.SetupS
		}
		fmt.Printf("latency_tail_ms is p%g of %d ops (%d beyond)\n", first.TailPct, first.Exact.Attempted, first.TailBeyond)
		fmt.Printf("setup_s of %d set-ups: %v\n", len(setups), setups)
		put("setup_s", median(setups))
		put("throughput_rps", first.ThroughputRPS)
		put("latency_p50_ms", first.P50Ms)
		put("latency_tail_ms", first.TailMs)
		put("success_share", ratio(float64(first.Exact.Succeeded), float64(first.Exact.Attempted)))
		put("cpu_ms_per_req", first.CPUMsPerReq)
		put("mem_peak_mb", first.MemPeakMB)
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	correct := len(problems) == 0
	final, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": first.Exact.Attempted,
		"failed":    first.Exact.Attempted - first.Exact.Succeeded,
		"metrics":   metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(final))
	return correct, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// printLayers prints the per-layer table: each metric with the end-to-end
// metric it should move and the workloads it should and should not move on.
func printLayers(out io.Writer, layers map[string]float64) {
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "%-30s %14s %-6s  %-44s %-20s %s\n", "per-layer metric", "value", "unit", "should move", "on", "flat on")
	for _, d := range perLayer {
		fmt.Fprintf(bw, "%-30s %14.4f %-6s  %-44s %-20s %s\n", d.name, layers[d.name], d.unit, d.moves, d.on, d.flat)
	}
	bw.Flush()
}

// gateRecord is the cross-run half of the determinism gate: the first run
// of a (workload, seed, run length) with a given binary records its exact
// counts under .bench_build, and every later one must repeat them.
func gateRecord(self, workload string, seed int64, seconds int, ex exact) error {
	bin, err := os.ReadFile(self)
	if err != nil {
		return nil // without the binary there is no build identity to key a record by
	}
	sum := sha256.Sum256(bin)
	var want exact
	if readOrWriteRecord(recordPath(workload, seed, seconds, hex.EncodeToString(sum[:8])), ex, &want) && want != ex {
		return fmt.Errorf("determinism gate: this seed earlier gave %+v, now %+v", want, ex)
	}
	return nil
}

// hostProbe times a fixed arithmetic loop, in milliseconds.  It is a
// diagnostic of how fast the host ran around a run, never used to adjust a
// metric.
func hostProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for range 50_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return ms(time.Since(t0))
}

var probeSink uint64
