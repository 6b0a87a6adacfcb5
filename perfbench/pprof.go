package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// hostBuckets are the host-time groups of a CPU profile: runtime garbage
// collection, the two bulk-memory primitives, and the repository modules
// the workloads run through. Samples elsewhere fall in "other".
var hostBuckets = []string{"gc", "memclr", "memmove", "sim", "rdma", "buffer", "storagenode", "wal", "engine", "index"}

const modulePrefix = "github.com/disagglab/disagg/internal/"

// bucketOf assigns one sample, given its frames innermost first, to a
// host-time group: collector work first, then a bulk-memory leaf, then the
// innermost frame in a repository module.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "gc"
		}
	}
	if len(frames) > 0 {
		switch frames[0] {
		case "runtime.memclrNoHeapPointers":
			return "memclr"
		case "runtime.memmove":
			return "memmove"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "/."); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// cpuShares reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each host bucket's share of sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = varints(s.locs, v, d)
				case 2:
					vals = varints(vals, v, d)
				}
				return nil
			})
			if len(vals) > 0 {
				s.val = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fs []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fs = append(fs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fs
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		shares[bucketOf(frames)] += float64(s.val)
		total += float64(s.val)
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}

var errProto = errors.New("malformed profile")

// fields calls fn for each field of protobuf message b: v holds varint
// values, data the payload of length-delimited ones.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field, packed (data set) or not.
func varints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
