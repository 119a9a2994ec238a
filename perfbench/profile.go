package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, and reports the share
// of samples per module for layers that have no public boundary the
// traced replay could wrap.

// cpuShareNames are the reported module shares.
var cpuShareNames = []string{"core", "mem", "alloc", "runtime_gc", "runtime_sched"}

// gcFrames and schedFrames mark a sample as garbage collection or
// goroutine scheduling when any frame of its stack is one of them.
var (
	gcFrames = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
		"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.GC": true, "runtime.gcMarkTermination": true,
	}
	schedFrames = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
		"runtime.goschedImpl": true, "runtime.goready": true, "runtime.wakep": true,
		"runtime.startm": true, "runtime.stopm": true, "runtime.notewakeup": true, "runtime.notesleep": true,
	}
	modulePrefixes = map[string]string{
		"repro/internal/core.": "core", "repro/internal/mem.": "mem", "repro/internal/alloc.": "alloc",
	}
)

// classify maps one sample's stack (leaf first) to a module share name,
// or "" for the rest.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return "runtime_sched"
		}
	}
	if len(stack) > 0 {
		for pfx, name := range modulePrefixes {
			if strings.HasPrefix(stack[0], pfx) {
				return name
			}
		}
	}
	return ""
}

// cpuShares returns each module's share of the profile's samples.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuShareNames))
	for _, n := range cpuShareNames {
		out[n] = 0
	}
	var total int64
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, l := range s.locs {
			stack = append(stack, p.funcsAt(l)...)
		}
		total += s.count
		if c := classify(stack); c != "" {
			out[c] += float64(s.count)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out, nil
}

type pbSample struct {
	locs  []uint64
	count int64
}

type pbProfile struct {
	samples []pbSample
	locs    map[uint64][]uint64 // location → function ids, innermost first
	funcs   map[uint64]int64    // function → name string index
	strs    []string
}

func (p *pbProfile) funcsAt(loc uint64) []string {
	var out []string
	for _, fid := range p.locs[loc] {
		if i := p.funcs[fid]; i >= 0 && int(i) < len(p.strs) {
			out = append(out, p.strs[i])
		}
	}
	return out
}

var errProto = errors.New("malformed profile")

// pbField is one decoded protobuf field.
type pbField struct {
	num int
	v   uint64 // varint value
	b   []byte // length-delimited payload
	wt  int
}

// pbFields decodes every top-level field of msg.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errProto
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wt: int(key & 7)}
		switch f.wt {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errProto
			}
			f.b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errProto
			}
			msg = msg[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts returns a repeated integer field's values, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wt == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes the fields of profile.proto the shares need:
// samples (locations, values), locations (lines → functions),
// functions (name) and the string table.
func parseProfile(raw []byte) (*pbProfile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pbSample
			for _, g := range sub {
				vals, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vals...)
				case 2:
					if s.count == 0 && len(vals) > 0 {
						s.count = int64(vals[0]) // first value: sample count
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					lf, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							fids = append(fids, h.v)
						}
					}
				}
			}
			p.locs[id] = fids
		case 5: // function
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			name := int64(-1)
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		}
	}
	return p, nil
}
