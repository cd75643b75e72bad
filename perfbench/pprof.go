package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile wraps runtime/pprof around a traced pass.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of self (leaf) CPU
// time. layers lists the afterimage/internal packages reported by name;
// "runtime" collects the Go runtime and "other" everything else.
func (p *cpuProfile) stop(layers []string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	self, err := selfByFunction(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"runtime": 0, "other": 0}
	for _, l := range layers {
		shares[l] = 0
	}
	var total float64
	for fn, v := range self {
		total += v
		b := layerOf(fn)
		if _, ok := shares[b]; !ok {
			b = "other"
		}
		shares[b] += v
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf maps a profiled function name to its layer: the last element of an
// afterimage/internal package, "runtime" for the Go runtime, else the
// package path.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "afterimage/internal/"):
		return strings.TrimPrefix(pkg, "afterimage/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// selfByFunction decodes a gzipped profile.proto (the format runtime/pprof
// writes) and sums each sample's last value — CPU nanoseconds — onto its
// leaf function. The leaf is the first line of the first location: pprof
// lists inlined frames innermost first.
func selfByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leafLoc uint64
		value   int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					return varints(wire, v, b, func(x uint64) {
						if first {
							s.leafLoc, first = x, false
						}
					})
				case 2: // value
					return varints(wire, v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // first line = innermost frame
					haveLine = true
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leafLoc]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
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
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one varint, or
// a packed run.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
