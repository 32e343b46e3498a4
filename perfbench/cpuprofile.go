package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// A CPU profile of the traced run, folded into per-package shares. The
// profile comes from runtime/pprof (gzipped profile.proto); the decoder
// below reads only the fields the fold needs, so the benchmark stays
// stdlib-only.

// cpuProfile records a CPU profile while fn runs.
func cpuProfile(fn func() error) (profile []byte, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), runErr
}

// gcFrames are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work: background marking and
// sweeping, and the mark assists charged to allocating goroutines.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// modulePrefix names the packages whose CPU time the fold attributes.
const modulePrefix = "dataai/internal/"

// packageShares folds a CPU profile into shares of total sampled CPU
// time. A sample counts as "gc" when any frame is collector work;
// otherwise it counts for the innermost frame in a dataai/internal
// package (so the runtime and standard-library code a package calls is
// charged to that package), keyed by the package's last path element.
// Samples with no such frame count only toward the total.
func packageShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	byPkg := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		gc := false
		owner := ""
		for _, loc := range s.locations {
			for _, fn := range p.frames[loc] {
				if gcFrames[fn] {
					gc = true
				}
				if owner == "" && strings.HasPrefix(fn, modulePrefix) {
					owner = packageOf(fn)
				}
			}
		}
		switch {
		case gc:
			byPkg["gc"] += v
		case owner != "":
			byPkg[owner] += v
		}
	}
	if total > 0 {
		for k := range byPkg {
			byPkg[k] /= total
		}
	}
	return byPkg, nil
}

// packageOf returns the last import-path element of a fully qualified
// function name: "dataai/internal/serving.(*cluster).route" → "serving".
func packageOf(fn string) string {
	rest := strings.TrimPrefix(fn, modulePrefix)
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// profileData is the part of a profile the fold reads: each location's
// function names, innermost (inlined) first, and each sample's stack,
// leaf first, with its last value (CPU nanoseconds).
type profileData struct {
	frames  map[uint64][]string
	samples []profileSample
}

type profileSample struct {
	locations []uint64
	value     int64
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{} // function id → string index
		locFuncs = map[uint64][]uint64{}
		out      = &profileData{frames: map[uint64][]string{}}
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profileSample
			var values []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					s.locations = append(s.locations, ids...)
					return err
				case 2:
					vals, err := varints(w, v, b)
					for _, x := range vals {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			out.samples = append(out.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, fid := range fns {
			if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		out.frames[loc] = names
	}
	return out, nil
}

var errProto = errors.New("cpuprofile: malformed profile")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints returns a repeated scalar field's values, packed or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
