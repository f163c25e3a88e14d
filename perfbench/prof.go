package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// profLayers are the groups the prof.<layer>_frac metrics report. The
// program's packages are named after their internal/<pkg> module; the
// runtime is split into map access, garbage collection and allocation,
// and scheduling; json and net are the standard-library layers the
// service spends its warm-hit time in.
var profLayers = []string{
	"trace", "system", "sim", "cache", "l2", "l3", "ring", "coherence",
	"core", "wbpolicy", "cpu", "workload", "sweep", "serve", "telemetry",
	"json", "net", "runtime_map", "runtime_gc", "runtime_sched",
	"runtime_other", "other",
}

// helperPkgs are standard-library packages whose time is charged to the
// nearest calling frame outside them: DEFLATE and varint decoding and
// file reads are the trace layer's work, a socket read is the net
// layer's, hashing and sorting belong to their caller.
var helperPkgs = []string{
	"compress/", "bufio", "bytes", "encoding/binary", "io", "hash/",
	"crypto/sha256", "sort", "slices", "strconv", "math", "container/",
	"errors", "unicode", "strings", "fmt", "reflect", "internal/bytealg",
	"os", "syscall", "internal/poll", "internal/runtime/syscall",
}

// profileFractions reads a gzipped pprof CPU profile and returns each
// layer's share of the CPU time and the sample count. A sample is
// charged to the package of its leaf frame, skipping helper packages.
func profileFractions(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.funcs[loc] {
				if pkg := funcPackage(fn); !isHelper(pkg) {
					layer = classify(fn, pkg)
					break frames
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
		samples += s.count
	}
	out := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out, samples, nil
}

// funcPackage returns the import path of a Go symbol such as
// "cmpcache/internal/cache.(*Cache).find" or "runtime.mapaccess2".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isHelper(pkg string) bool {
	for _, h := range helperPkgs {
		if pkg == h || (strings.HasSuffix(h, "/") && strings.HasPrefix(pkg, h)) {
			return true
		}
	}
	return false
}

func classify(fn, pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "cmpcache/internal/"); ok {
		for _, l := range profLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "internal/runtime/maps" || pkg == "runtime" && hasAnyPrefix(fn[len("runtime."):], "map", "memhash", "aeshash", "strhash"):
		return "runtime_map"
	case pkg == "sync" || pkg == "sync/atomic" || pkg == "time" || pkg == "internal/sync":
		return "runtime_sched"
	case pkg == "runtime":
		name := fn[len("runtime."):]
		switch {
		case hasAnyPrefix(name, "gc", "scan", "mark", "greyobject", "findObject", "heapBits", "wbBuf",
			"bulkBarrier", "sweep", "bgsweep", "bgscavenge", "malloc", "memclr", "nextFree", "newobject",
			"newarray", "makeslice", "growslice", "(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)",
			"(*gcWork)", "(*gcControllerState)", "(*sweepLocked)", "(*pageAlloc)", "(*scavenger",
			"typePointers", "(*typePointers)", "spanOf", "deductAssistCredit", "publicationBarrier"):
			return "runtime_gc"
		case hasAnyPrefix(name, "futex", "nanotime", "walltime", "park", "schedule", "findRunnable",
			"runq", "stealWork", "notesleep", "notewakeup", "semasleep", "semawakeup", "usleep", "osyield",
			"procyield", "mcall", "goready", "ready", "wakep", "startm", "stopm", "gopark", "gosched",
			"lock", "unlock", "chan", "selectgo", "casgstatus", "execute", "checkTimers", "netpoll",
			"sysmon", "entersyscall", "exitsyscall", "semacquire", "semrelease", "(*timer", "(*timers",
			"resetspinning", "handoffp", "acquirep", "releasep", "goexit", "newproc", "systemstack",
			"mPark", "(*waitq)", "(*sudog", "recv", "send", "closechan", "notify", "sync_runtime",
			"pollWork", "retake"):
			return "runtime_sched"
		}
		return "runtime_other"
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile the fractions need.
type profile struct {
	samples []profSample
	funcs   map[uint64][]string // location ID -> function names, innermost first
}

type profSample struct {
	locs         []uint64 // leaf first
	count, value int64    // sample count, CPU nanoseconds
}

// parseProfile decodes the profile.proto fields perfbench uses: samples
// (location IDs and values), locations (innermost line's function),
// functions (name) and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function ID -> string index
		locFuncs = map[uint64][]uint64{} // location ID -> function IDs
		p        = &profile{funcs: map[uint64][]string{}}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 2:
					return eachPacked(b, func(x uint64) { s.locs = append(s.locs, x) })
				case num == 1:
					s.locs = append(s.locs, v)
				case num == 2 && wire == 2:
					return eachPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
				case num == 2:
					vals = append(vals, int64(v))
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count, s.value = vals[0], vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; inlined calls come innermost first
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locFuncs {
		for _, fn := range fns {
			if i, ok := funcName[fn]; ok && i >= 0 && i < int64(len(strs)) {
				p.funcs[loc] = append(p.funcs[loc], strs[i])
			}
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// addProfile saves a CPU profile under the output directory and adds
// its prof.<layer>_frac metrics and sample count to v.
func addProfile(v map[string]float64, gz []byte, o options) error {
	path := filepath.Join(o.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", o.workload, o.seed))
	if err := os.WriteFile(path, gz, 0o644); err != nil {
		return err
	}
	fracs, samples, err := profileFractions(gz)
	if err != nil {
		return err
	}
	for l, f := range fracs {
		v["prof."+l+"_frac"] = f
	}
	v["prof.samples"] = float64(samples)
	return nil
}
