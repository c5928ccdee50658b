package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// compareRow is one measurement on both sides of a comparison: every
// sample of it, in input order.
type compareRow struct {
	Name     string
	Unit     string
	Old, New []float64
}

// loadTrajectory reads a trajectory JSON written by benchtraj.
func loadTrajectory(path string) (*trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	return &t, nil
}

// compareTrajectories pairs the ns/op samples of every benchmark, and
// the whole takoreport wall time, of two trajectories by name. Rows follow
// the new trajectory's order, then names only the old one has.
func compareTrajectories(old, cur *trajectory) []compareRow {
	var rows []compareRow
	index := map[string]int{}
	add := func(name, unit string, v float64, isNew bool) {
		i, ok := index[name]
		if !ok {
			i = len(rows)
			index[name] = i
			rows = append(rows, compareRow{Name: name, Unit: unit})
		}
		if isNew {
			rows[i].New = append(rows[i].New, v)
		} else {
			rows[i].Old = append(rows[i].Old, v)
		}
	}
	for _, side := range []struct {
		t     *trajectory
		isNew bool
	}{{cur, true}, {old, false}} {
		for _, e := range side.t.Benchmarks {
			if ns, ok := e.Metrics["ns/op"]; ok {
				add(e.Name, "ns/op", ns, side.isNew)
			}
		}
		if r := side.t.Report; r != nil {
			add(fmt.Sprintf("takoreport -j %d", r.Jobs), "wall ms", r.WallMS, side.isNew)
		}
	}
	return rows
}

// minMedian returns the minimum and median of samples.
func minMedian(samples []float64) (lo, med float64) {
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[0], s[n/2]
	}
	return s[0], (s[n/2-1] + s[n/2]) / 2
}

// writeComparison prints rows as a markdown table: per measurement, the
// minimum and median of each side's samples and their relative change
// (negative is faster for both units).
func writeComparison(w io.Writer, rows []compareRow) {
	fmt.Fprintln(w, "| benchmark | unit | samples old/new | min old | min new | Δ min | median old | median new | Δ median |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		cells := [6]string{"–", "–", "–", "–", "–", "–"}
		var oLo, oMed, nLo, nMed float64
		if len(r.Old) > 0 {
			oLo, oMed = minMedian(r.Old)
			cells[0], cells[3] = num(oLo), num(oMed)
		}
		if len(r.New) > 0 {
			nLo, nMed = minMedian(r.New)
			cells[1], cells[4] = num(nLo), num(nMed)
		}
		if len(r.Old) > 0 && len(r.New) > 0 {
			cells[2], cells[5] = delta(oLo, nLo), delta(oMed, nMed)
		}
		fmt.Fprintf(w, "| %s | %s | %d/%d | %s | %s | %s | %s | %s | %s |\n",
			r.Name, r.Unit, len(r.Old), len(r.New),
			cells[0], cells[1], cells[2], cells[3], cells[4], cells[5])
	}
}

// num prints four significant digits, but never in exponent form.
func num(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func delta(old, cur float64) string {
	if old == 0 {
		return "–"
	}
	return fmt.Sprintf("%+.1f%%", (cur-old)/old*100)
}
