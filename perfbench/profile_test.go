package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dnnlock/internal/nn.(*Conv2D).forwardInto":            "dnnlock/internal/nn",
		"dnnlock/internal/tensor.matMulRows[go.shape.float64]": "dnnlock/internal/tensor",
		"runtime.mallocgc": "runtime",
		"dnnlock/internal/tensor.GetMatrix[dnnlock/internal/tensor.Mat[float64]]": "dnnlock/internal/tensor",
		"internal/runtime/maps.(*Map).getWithKeySmall":                            "internal/runtime/maps",
		"net/http.(*conn).serve":                                                  "net/http",
		"main.main":                                                               "main",
		"dnnlock/internal/core.(*Attack).parallelFor.func1":                       "dnnlock/internal/core",
		"dnnlock/internal/service.(*Server).executeJob.deferwrap":                 "dnnlock/internal/service",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"dnnlock/internal/nn": "nn", "dnnlock/internal/lint": "other", "runtime": "runtime",
		"internal/runtime/maps": "runtime", "net/http": "other", "main": "other",
	} {
		if got := bucketOf(pkg); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

var spinSink float64

func TestCPUProfileSharesSumToOne(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares["cpu."+b]
		if !ok {
			t.Fatalf("bucket cpu.%s missing", b)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("CPU shares sum to %v, want 1", total)
	}
	// The spin loop runs in this (main) package.
	if shares["cpu.other"] < 0.5 {
		t.Fatalf("spin loop in package main got only %.2f of the samples", shares["cpu.other"])
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables and
// BENCHMARK.json in step: same names, same units, same order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", table, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
