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

// profile is the part of a pprof profile the CPU ledger needs: each sample's
// weight and its call stack resolved to function names, innermost frame
// first, with inlined frames expanded in place.
type profile struct {
	samples []profSample
}

type profSample struct {
	weight int64    // the sample's first value: its count in a CPU profile
	frames []string // function names, innermost first
}

var errBadProto = errors.New("profile: malformed protobuf")

// parseProfile decodes the gzip-compressed profile.proto that runtime/pprof
// writes. It reads samples, locations, functions and the string table, and
// skips every other field by its wire type.
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
	type rawSample struct {
		locs   []uint64
		weight int64
		valued bool
	}
	var (
		raws     []rawSample
		locFuncs = map[uint64][]uint64{}
		funcName = map[uint64]uint64{}
		strs     []string
	)
	err := eachField(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := uints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value
					vals, err := uints(wire, v, b)
					if !s.valued && len(vals) > 0 {
						s.weight, s.valued = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line, innermost inlined frame first
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, err
	}
	p := &profile{samples: make([]profSample, 0, len(raws))}
	for _, r := range raws {
		s := profSample{weight: r.weight}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				s.frames = append(s.frames, strs[idx])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b a length-delimited body.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		var v uint64
		var body []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errBadProto
			}
			body, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), int(key&7), v, body); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated varint field, which runtime/pprof writes packed
// when it has more than two elements and one field per value otherwise.
func uints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// modules are the repository packages the CPU ledger reports a share for:
// every internal package a world or a sweep can execute, plus the root
// package ntpddos, which holds the table builders.
var modules = []string{
	"asdb", "attack", "booter", "core", "darknet", "detect", "dns", "geo",
	"honeypot", "ispview", "metrics", "netaddr", "netflow", "netsim", "ntp",
	"ntpd", "ntpddos", "packet", "pbl", "pcap", "reflector", "report", "rng",
	"routing", "scan", "scenario", "sketch", "stats", "sweep", "telemetry",
	"timeattack", "timesync", "vtime",
}

// Buckets for samples with no repository frame.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "runtime.other"
)

// moduleOf names the repository module a function belongs to: "netsim" for
// ntpddos/internal/netsim.(*Network).SendFrom, "ntpddos" for the root
// package, and "" for the runtime, the standard library and this benchmark.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ntpddos/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "ntpddos.") {
		return "ntpddos"
	}
	return ""
}

// bucketOf charges a stack (innermost frame first) to the innermost frame
// that belongs to a repository module, so runtime work such as a memmove
// under netsim's datagram copy counts as netsim. A stack with no repository
// frame is background garbage collection when a GC worker, sweeper or
// scavenger runs it, and runtime.other otherwise.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return bucketGC
		}
	}
	return bucketOther
}

// cpuShares returns each bucket's share of the profile's samples and the
// total sample count.
func cpuShares(p *profile) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		counts[bucketOf(s.frames)] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(counts))
	for b, n := range counts {
		shares[b] = ratio(float64(n), float64(total))
	}
	return shares, total
}
