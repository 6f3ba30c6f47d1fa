package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Times are process CPU time since the process started.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 at the top
	Start  time.Duration `json:"start_cpu_ns"`
	End    time.Duration `json:"end_cpu_ns"`
}

// tracer records nested spans in memory. A nil *tracer records nothing,
// which is how untraced passes run the same code.
type tracer struct {
	spans []span
	open  []int
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: cpuNow()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = cpuNow()
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the durations of its direct children.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[i])
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// modulePrefix is the import path prefix of the repository's layers.
const modulePrefix = "github.com/essat/essat/internal/"

// layerOf names the layer a function belongs to: the repository package
// for the simulator's own code, "runtime" for the Go runtime (including
// its internal/runtime packages), and "other" for the rest of the
// standard library.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which may hold paths
	}
	switch {
	case strings.HasPrefix(fn, modulePrefix):
		rest := fn[len(modulePrefix):]
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"),
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// leafShares folds a CPU profile (the gzipped protobuf runtime/pprof
// writes) by the layer of each sample's leaf frame and returns each
// layer's share of all samples.
func leafShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "?"
		if fns := p.locations[s.locs[0]]; len(fns) > 0 {
			name = p.strings[p.functions[fns[0]]]
		}
		counts[layerOf(name)] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for layer, c := range counts {
		shares[layer] = float64(c) / float64(total)
	}
	return shares, nil
}

// profile is the part of a pprof profile leafShares needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → string table index of its name
	strings   []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

var errProto = errors.New("profile: malformed protobuf")

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case fProfileSample:
			var s profSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locs, v, m)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, v, m); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing varint
// fields as v and length-delimited fields as msg.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which pprof writes
// either packed (msg set) or one value per field (v).
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
