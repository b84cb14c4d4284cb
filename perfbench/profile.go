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

// Layers of the program that CPU samples are attributed to, in report order.
const (
	layerBuild   = "build"   // engine construction: topology build, placement, engine init
	layerPlan    = "plan"    // per-iteration plan build and accounting: gate, OCS controller, bookkeeping
	layerCompile = "compile" // collective compilation of all-to-alls and all-reduces into routed flows
	layerDrain   = "drain"   // the comm plan drained on the network backend (fluid max-min solve)
	layerService = "service" // what-if service front end: request decoding, engine pool, caches, response encoding, HTTP at both ends
	layerGC      = "gc"      // background garbage collection
	layerOther   = "other"   // everything else: result assembly, failure injection, scheduler, this benchmark's client and checks
)

var layers = []string{layerBuild, layerPlan, layerCompile, layerDrain, layerService, layerGC, layerOther}

// layerNone marks samples of this benchmark's calibration (see calib.go),
// which belong to no layer of the program and are dropped.
const layerNone = ""

// layerRules maps the entry point of each layer, by function-name prefix, to
// the layer. A sample belongs to the layer of its innermost frame that
// matches a rule, so a route lookup inside the collective compiler counts as
// compile even though its own code lives in the topology package. A renamed
// entry point only moves its samples to an outer layer; nothing breaks.
var layerRules = []struct{ prefix, layer string }{
	{"mixnet/internal/collective.", layerCompile},
	{"mixnet/internal/commplan.(*Plan).Execute", layerDrain},
	{"mixnet/internal/trainsim.(*Engine).BeginIteration", layerPlan},
	{"mixnet/internal/trainsim.(*Engine).FinishIteration", layerPlan},
	{"mixnet/internal/scenario.NewEngine", layerBuild},
	{"mixnet/internal/scenario.newEngine", layerBuild},
	{"mixnet/internal/failure.", layerOther},
	{"mixnet/internal/serve.", layerService},
	{"net/http.", layerService},
	{"net.", layerService},
	{"internal/poll.", layerService},
	{"syscall.", layerService},
	{"runtime.gcBgMarkWorker", layerGC},
	{"runtime.bgsweep", layerGC},
	{"runtime.bgscavenge", layerGC},
	{"main.(*calib).run", layerNone},
}

func layerOf(fn string) (string, bool) {
	for _, r := range layerRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, true
		}
	}
	return "", false
}

var errProfile = errors.New("malformed CPU profile")

// cpuByLayer reads a gzipped pprof CPU profile and returns the CPU
// nanoseconds sampled in each layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	// The fields of profile.proto this needs: sample_type = 1, sample = 2,
	// location = 4, function = 5, string_table = 6.
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		units    []uint64                // per sample_type: string index of its unit
		samples  []sample                // location ids innermost first
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		funcName = map[uint64]uint64{}   // function id -> string index of its name
		strs     []string
	)
	err = eachField(raw, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 1:
			var unit uint64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = v
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendUints(s.locs, w, v, d)
				case 2:
					s.vals, err = appendUints(s.vals, w, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	nsIdx := -1
	for i, u := range units {
		if u < uint64(len(strs)) && strs[u] == "nanoseconds" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, fmt.Errorf("%w: no nanoseconds sample type", errProfile)
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		if nsIdx >= len(s.vals) {
			return nil, errProfile
		}
		layer := layerOther
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					continue
				}
				if l, ok := layerOf(strs[idx]); ok {
					layer = l
					break walk
				}
			}
		}
		if layer != layerNone {
			out[layer] += int64(s.vals[nsIdx])
		}
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. v carries
// the value of varint and fixed-width fields, data the payload of
// length-delimited ones.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
