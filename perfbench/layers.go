package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run arms a CPU profile around each traced repetition and
// reduces it to host time by layer. Every sample is charged to exactly
// one layer, so the table sums to the profile total by construction; the
// profile total itself is compared with the process CPU time measured
// over the same interval (trace.profile_cpu_frac), which is the sampling
// error of the whole table.
//
// The rules, applied to each sample's stack in this order:
//
//  1. proc — the stack holds a Go-runtime goroutine-switching frame
//     (channel send/receive, select, park, ready, futex, schedule; see
//     switchPrefixes) inner to its innermost tako/internal frame, and that
//     frame is in internal/sim, i.e. a sim.Proc handing off control. A
//     stack with no tako frame at all that is rooted in the scheduler
//     (runtime.mcall or runtime.mstart) is the other half of the same
//     handoff, run on the scheduler's own stack, and is charged here too.
//  2. gc — any frame is a GC worker, a GC assist, or mallocgc (gcPrefixes).
//  3. the layer of the innermost tako/internal/<pkg> frame (pkgLayer);
//     packages outside the table, the benchmark itself and runtime
//     stacks matched by neither rule above go to "other".

// layers is the report order of the host-time table.
var layers = []string{"proc", "sim", "hier", "cache", "dram_noc", "engine", "cpu", "analytic", "mem", "gc", "other"}

// pkgLayer maps a tako/internal package to its layer: the seven layers
// of the simulator's host cost (process switching aside) plus the
// analytical fast-forward model and the simulated address space.
var pkgLayer = map[string]string{
	"sim":       "sim",
	"hier":      "hier",
	"cache":     "cache",
	"tlb":       "cache",
	"flat":      "cache",
	"dram":      "dram_noc",
	"noc":       "dram_noc",
	"engine":    "engine",
	"core":      "engine",
	"morphs":    "engine",
	"cpu":       "cpu",
	"workloads": "cpu",
	"analytic":  "analytic",
	"mem":       "mem",
}

var switchPrefixes = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.send", "runtime.recv",
	"runtime.gopark", "runtime.park_m", "runtime.goready", "runtime.ready",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.gogo",
	"runtime.runqput", "runtime.runqget", "runtime.runqgrab", "runtime.runqsteal",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mcall",
}

var gcPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.mallocgc",
	"runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination",
}

const takoPrefix = "tako/internal/"

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// takoPkg returns the internal package a function belongs to, or "".
func takoPkg(fn string) string {
	if !strings.HasPrefix(fn, takoPrefix) {
		return ""
	}
	rest := fn[len(takoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// layerOf charges one stack, listed leaf first, to its layer.
func layerOf(stack []string) string {
	inner := -1
	for i, fn := range stack {
		if takoPkg(fn) != "" {
			inner = i
			break
		}
	}
	runtimePart := stack
	if inner >= 0 {
		runtimePart = stack[:inner]
	}
	switching := false
	for _, fn := range runtimePart {
		if hasAnyPrefix(fn, switchPrefixes) {
			switching = true
			break
		}
	}
	if switching {
		if inner >= 0 && takoPkg(stack[inner]) == "sim" {
			return "proc"
		}
		if inner < 0 && len(stack) > 0 {
			if root := stack[len(stack)-1]; strings.HasPrefix(root, "runtime.mcall") || strings.HasPrefix(root, "runtime.mstart") {
				return "proc"
			}
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcPrefixes) {
			return "gc"
		}
	}
	if inner >= 0 {
		if l, ok := pkgLayer[takoPkg(stack[inner])]; ok {
			return l
		}
	}
	return "other"
}

// reduceProfile decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds charged to each layer and their total.
func reduceProfile(data []byte) (map[string]int64, int64, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return byLayer, total, nil
}

// cpuSample is one profile sample: its stack (function names, leaf
// first, inlined frames expanded) and the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// decodeProfile reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) a CPU profile needs:
// sample types, samples, locations with their lines, functions and the
// string table.
func decodeProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		raws        []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
		strtab      []string
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(bb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	// Charge CPU nanoseconds: the "cpu"/"nanoseconds" sample type.
	valueIdx := -1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" && str(st[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(raws))
	for _, r := range raws {
		if valueIdx >= len(r.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range r.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		out = append(out, cpuSample{stack: stack, ns: r.values[valueIdx]})
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: varint
// fields with their value, length-delimited fields with their bytes.
func walkFields(b []byte, fn func(field, wire int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints reads a repeated varint field in either encoding: one
// value per field (wire 0) or packed into a byte string (wire 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
