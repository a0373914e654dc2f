package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// This file reads the profiles runtime/pprof writes — gzip-compressed
// protocol buffers in the profile.proto schema — with the standard
// library only, decoding just the messages the layer fold needs:
// sample types, samples, locations (with inlined lines), functions and
// the string table.

// profile is a decoded pprof profile, each sample resolved to the
// function names of its stack, innermost first.
type profile struct {
	SampleTypes []string // "type/unit", e.g. "samples/count", "alloc_space/bytes"
	Samples     []profileSample
}

type profileSample struct {
	Stack  []string
	Values []int64
}

// profile.proto field numbers.
const (
	fieldProfileSampleType = 1
	fieldProfileSample     = 2
	fieldProfileLocation   = 4
	fieldProfileFunction   = 5
	fieldProfileStrings    = 6

	fieldValueTypeType = 1
	fieldValueTypeUnit = 2

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// Protocol buffer wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("profile: truncated message")

// pbField is one decoded field: its number, wire type, and either the
// scalar (varint or fixed) or the length-delimited payload.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields decodes every top-level field of one message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, which an encoder
// may write packed (one length-delimited run) or one field per value.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.value}, nil
	}
	if f.wire != wireBytes {
		return nil, fmt.Errorf("profile: field %d: wire type %d is not an integer", f.num, f.wire)
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a profile, gunzipping it first if needed.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		types    [][2]uint64 // string indexes of (type, unit)
		samples  []struct{ locs, values []uint64 }
		locFuncs = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcName = map[uint64]uint64{}   // function ID -> name string index
	)
	for _, f := range top {
		if f.wire != wireBytes {
			continue
		}
		switch f.num {
		case fieldProfileStrings:
			strs = append(strs, string(f.bytes))
		case fieldProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var vt [2]uint64
			for _, g := range sub {
				switch g.num {
				case fieldValueTypeType:
					vt[0] = g.value
				case fieldValueTypeUnit:
					vt[1] = g.value
				}
			}
			types = append(types, vt)
		case fieldProfileSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s struct{ locs, values []uint64 }
			for _, g := range sub {
				if g.num != fieldSampleLocation && g.num != fieldSampleValue {
					continue // labels
				}
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				if g.num == fieldSampleLocation {
					s.locs = append(s.locs, vs...)
				} else {
					s.values = append(s.values, vs...)
				}
			}
			samples = append(samples, s)
		case fieldProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case fieldLocationID:
					id = g.value
				case fieldLocationLine:
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fieldLineFunction {
							fns = append(fns, h.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fieldProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fieldFunctionID:
					id = g.value
				case fieldFunctionName:
					name = g.value
				}
			}
			funcName[id] = name
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of %d", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, vt := range types {
		typ, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, typ+"/"+unit)
	}
	for _, s := range samples {
		if len(s.values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(s.values), len(p.SampleTypes))
		}
		ps := profileSample{Values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.Values[i] = int64(v)
		}
		// Sample locations run leaf first; within a location, inlined
		// lines run innermost first.
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				ps.Stack = append(ps.Stack, name)
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// valueIndex returns the position of the sample type named typ (the
// part before the slash).
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.SampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no %q values in %v", typ, p.SampleTypes)
}

// fold sums the typ values of every sample into the bucket classify
// picks for its stack.
func (p *profile) fold(typ string, classify func(stack []string) string) (map[string]int64, error) {
	vi, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.Samples {
		out[classify(s.Stack)] += s.Values[vi]
	}
	return out, nil
}

// shares turns folded totals into fractions of their sum.
func shares(totals map[string]int64) map[string]float64 {
	var sum int64
	for _, v := range totals {
		sum += v
	}
	out := make(map[string]float64, len(totals))
	if sum == 0 {
		return out
	}
	for k, v := range totals {
		out[k] = float64(v) / float64(sum)
	}
	return out
}

// layerOf charges a stack (innermost first) to the layer of its
// innermost program frame. A stack with no program frame is the
// runtime's own work: "gc" when a collector, sweeper or scavenger frame
// is on it, "other" (scheduler, network poller, the benchmark itself)
// when not.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := programLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	return "other"
}

// programLayer maps a function name to its layer: internal packages by
// name (internal packages that are not layers count as "other"), the
// root package as "facade". Functions outside the module are not
// program frames.
func programLayer(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "dard/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if slices.Contains(layers, rest) {
			return rest, true
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "dard.") {
		return "facade", true
	}
	return "", false
}

// profiler takes the traced phase's CPU profile and the allocation
// profile difference across it.
type profiler struct {
	cpu        bytes.Buffer
	allocStart map[string]int64
}

func startProfiles() (*profiler, error) {
	p := &profiler{}
	var err error
	if p.allocStart, err = allocsByLayer(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the CPU profile and stores cpu.<layer> (share of samples)
// and alloc.<layer>_mb (heap MB allocated per unit of work) into out.
func (p *profiler) stop(out map[string]float64, units int) error {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cpu, err := prof.fold("samples", layerOf)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for l, v := range shares(cpu) {
		out["cpu."+l] = v
	}
	allocEnd, err := allocsByLayer()
	if err != nil {
		return err
	}
	for l, v := range allocEnd {
		out["alloc."+l+"_mb"] = float64(v-p.allocStart[l]) / 1e6 / float64(max(units, 1))
	}
	return nil
}

// allocsByLayer folds the cumulative allocation profile. The runtime
// publishes allocation samples at the end of a GC cycle, so one is
// forced first.
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	prof, err := parseProfile(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	totals, err := prof.fold("alloc_space", layerOf)
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	delete(totals, "gc") // allocation sites are never collector-only stacks
	return totals, nil
}
