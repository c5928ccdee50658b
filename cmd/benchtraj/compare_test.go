package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldLog = `BenchmarkProcPingPong-2   1000  400 ns/op
BenchmarkProcPingPong-2   1000  380 ns/op
BenchmarkProcPingPong-2   1000  420 ns/op
BenchmarkGone-2           1000   10 ns/op
`

const newLog = `BenchmarkProcPingPong-2   1000  250 ns/op
BenchmarkProcPingPong-2   1000  230 ns/op
BenchmarkProcPingPong-2   1000  260 ns/op
BenchmarkProcPingPong-2   1000  240 ns/op
BenchmarkAdded-2          1000   20 ns/op   3 allocs/op
`

func TestMinMedian(t *testing.T) {
	for _, c := range []struct {
		in       []float64
		min, med float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{3, 1, 2}, 1, 2},
		{[]float64{4, 1, 3, 2}, 1, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		lo, med := minMedian(in)
		if lo != c.min || med != c.med {
			t.Errorf("minMedian(%v) = %v, %v; want %v, %v", c.in, lo, med, c.min, c.med)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("minMedian reordered its input: %v", in)
			}
		}
	}
}

func TestCompareTrajectories(t *testing.T) {
	old := &trajectory{
		Benchmarks: parseLog(t, oldLog),
		Report:     &reportSummary{Jobs: 2, WallMS: 100, Experiments: []reportExp{{ID: "fig13", WallMS: 40}}},
	}
	cur := &trajectory{
		Benchmarks: parseLog(t, newLog),
		Report:     &reportSummary{Jobs: 2, WallMS: 80, Experiments: []reportExp{{ID: "fig13", WallMS: 30}}},
	}
	rows := compareTrajectories(old, cur)
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
	}
	want := []string{"BenchmarkProcPingPong-2", "BenchmarkAdded-2", "takoreport -j 2", "BenchmarkGone-2"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("rows %v, want %v", names, want)
	}
	if len(rows[0].Old) != 3 || len(rows[0].New) != 4 {
		t.Fatalf("ping-pong samples %d/%d, want 3/4", len(rows[0].Old), len(rows[0].New))
	}

	var buf bytes.Buffer
	writeComparison(&buf, rows)
	out := buf.String()
	for _, line := range []string{
		// min 380 → 230, median 400 → 245.
		"| BenchmarkProcPingPong-2 | ns/op | 3/4 | 380 | 230 | -39.5% | 400 | 245 | -38.8% |",
		"| BenchmarkAdded-2 | ns/op | 0/1 | – | 20 | – | – | 20 | – |",
		"| BenchmarkGone-2 | ns/op | 1/0 | 10 | – | – | 10 | – | – |",
		"| takoreport -j 2 | wall ms | 1/1 | 100 | 80 | -20.0% | 100 | 80 | -20.0% |",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("comparison lacks row\n%s\ngot:\n%s", line, out)
		}
	}
}

// A trajectory written by benchtraj reads back with every sample.
func TestLoadTrajectoryRoundTrip(t *testing.T) {
	traj := trajectory{Benchmarks: parseLog(t, newLog), Report: &reportSummary{Jobs: 2, WallMS: 80}}
	data, err := json.Marshal(traj)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 5 || got.Benchmarks[4].Metrics["allocs/op"] != 3 || got.Report.WallMS != 80 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// The committed trajectories still carry the sharded-engine speedup
// columns that benchtraj no longer writes; -compare must read them and
// reproduce the first table of the committed comparison.
func TestCompareCommittedTrajectories(t *testing.T) {
	old, err := loadTrajectory("../../BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadTrajectory("../../BENCH_13.json")
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile("../../BENCH_13.compare.md")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(md, []byte("| benchmark |"))
	end := bytes.Index(md[start:], []byte("\n\n"))
	if start < 0 || end < 0 {
		t.Fatal("BENCH_13.compare.md has no comparison table")
	}
	want := string(md[start:start+end]) + "\n"
	var buf bytes.Buffer
	writeComparison(&buf, compareTrajectories(old, cur))
	if got := buf.String(); got != want {
		t.Fatalf("comparison of the committed trajectories:\n%s\nwant:\n%s", got, want)
	}
}
