package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"tako/internal/system"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which describes
// the benchmark, in step with the workloads and metrics it prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		doc  []metric
		spec []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.spec) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.kind, len(c.doc), len(c.spec))
			continue
		}
		for i, m := range c.doc {
			if m.Name != c.spec[i].name || m.Unit != c.spec[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					c.kind, i, m.Name, m.Unit, c.spec[i].name, c.spec[i].unit)
			}
		}
	}
}

func TestMedianOf(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := medianOf(c.in); got != c.want {
			t.Errorf("medianOf(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestSavedSecondsChargesReusedOriginals(t *testing.T) {
	run := func(label string, cycles uint64, cached bool) system.RunRecord {
		return system.RunRecord{Label: label, Cycles: cycles, Cached: cached}
	}
	testWindow := func(execMS float64, runs ...system.RunRecord) window {
		return window{cap: system.CaptureResult{Runs: runs, ExecMS: execMS}}
	}
	first := testWindow(4.0, run("nvm/a", 1, false), run("nvm/b", 2, false))
	second := testWindow(0, run("nvm/a", 1, true), run("nvm/b", 2, true))
	if got := savedSeconds([]window{first, second}); got != 4.0/1e3 {
		t.Errorf("savedSeconds = %g, want %g", got, 4.0/1e3)
	}
	partial := testWindow(0, run("nvm/a", 1, true))
	if got := savedSeconds([]window{first, partial}); got != 2.0/1e3 {
		t.Errorf("savedSeconds with one reuse = %g, want %g", got, 2.0/1e3)
	}
}

// TestMetricsCoverSpecs checks that every listed metric is computed and
// every computed metric is listed, so none prints as a silent 0.
func TestMetricsCoverSpecs(t *testing.T) {
	r := rep{wall: time.Second, cpu: time.Second}
	r.work.accesses = 10
	check := func(kind string, m map[string]float64, spec []metricSpec) {
		for _, s := range spec {
			if _, ok := m[s.name]; !ok {
				t.Errorf("%s metric %s is listed but not computed", kind, s.name)
			}
			delete(m, s.name)
		}
		for n := range m {
			t.Errorf("%s metric %s is computed but not listed", kind, n)
		}
	}
	check("end_to_end", endToEndMetrics([]rep{r}, 1), endToEnd)
	check("per_layer", perLayerMetrics(allWorkloads[0], []rep{r}, []rep{r}, 0, 0, 0), perLayer)
}
