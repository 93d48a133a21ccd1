package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMedianTimings pins how a `go test -bench` output becomes the timings
// block: CPU suffixes are stripped, non-benchmark lines are ignored, and a
// benchmark repeated by -count contributes the median of its samples rather
// than whichever line came last.
func TestMedianTimings(t *testing.T) {
	for _, c := range []struct {
		name string
		text string
		want map[string]float64
	}{
		{
			name: "single line",
			text: "BenchmarkA-2   \t100\t  2500 ns/op\t 16 B/op\t 1 allocs/op\n",
			want: map[string]float64{"BenchmarkA": 2500},
		},
		{
			name: "odd count takes the middle sample",
			text: "BenchmarkA-2 10 300 ns/op\nBenchmarkA-2 10 100 ns/op\nBenchmarkA-2 10 900 ns/op\n",
			want: map[string]float64{"BenchmarkA": 300},
		},
		{
			name: "even count averages the middle pair",
			text: "BenchmarkA 10 400 ns/op\nBenchmarkA 10 100 ns/op\nBenchmarkA 10 200 ns/op\nBenchmarkA 10 1000 ns/op\n",
			want: map[string]float64{"BenchmarkA": 300},
		},
		{
			name: "the last sample does not win",
			text: "BenchmarkA-4 10 100 ns/op\nBenchmarkA-4 10 110 ns/op\nBenchmarkA-4 10 5000 ns/op\n",
			want: map[string]float64{"BenchmarkA": 110},
		},
		{
			name: "benchmarks are kept apart and noise is ignored",
			text: "goos: linux\nBenchmarkA-2 10 1.5 ns/op\nBenchmarkB/sub-2 10 7 ns/op\nBenchmarkA-2 10 2.5 ns/op\nPASS\nok  \tpfcache\t1.2s\n",
			want: map[string]float64{"BenchmarkA": 2, "BenchmarkB/sub": 7},
		},
		{
			name: "no benchmark lines",
			text: "PASS\nok  \tpfcache\t0.1s\n",
			want: map[string]float64{},
		},
	} {
		if got := medianTimings(c.text); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: medianTimings = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestParseTimingsRejectsEmpty checks that a file without benchmark lines is
// an error rather than an empty timings block.
func TestParseTimingsRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseTimings(path); err == nil {
		t.Fatal("parseTimings accepted a file without benchmark lines")
	}
}
