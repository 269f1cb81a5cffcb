package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// heapSampler polls the live heap (the heap the last collection found
// reachable, from runtime/metrics, no stop-the-world) every 5 ms from
// process start to stop.
type heapSampler struct {
	mu      sync.Mutex
	samples []float64
	done    chan struct{}
	wg      sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	//lint:ignore nakedgo the heap is sampled beside the workload; the sampler ends when stop closes done, and stop waits for it
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, float64(s[0].Value.Uint64()))
	h.mu.Unlock()
}

// stop ends sampling and waits for the sampler to exit. Idempotent.
func (h *heapSampler) stop() {
	select {
	case <-h.done:
	default:
		close(h.done)
	}
	h.wg.Wait()
}

// peakMiB is the live heap the process held for all but 1% of the time
// so far (the 99th percentile of the samples), in MiB. The strict maximum
// would hang on whether one collection happened to land inside a brief
// spike. It collects first, so memory still held at the end counts in full
// rather than as of whichever collection happened last.
func (h *heapSampler) peakMiB() float64 {
	runtime.GC()
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return newSample(h.samples).rank(99) / (1 << 20)
}

// cpuProfile records a CPU profile into memory.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the share of samples per bucket of
// cpuBuckets, keyed "cpu.<bucket>". Shares sum to 1 when any sample was
// taken.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	counts, err := leafPackages(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cpuBuckets))
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	for _, b := range cpuBuckets {
		out["cpu."+b] = 0
	}
	for pkg, n := range counts {
		if total > 0 {
			out["cpu."+bucketOf(pkg)] += float64(n) / float64(total)
		}
	}
	return out, nil
}

// bucketOf maps a Go package path to a cpuBuckets entry.
func bucketOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "dnnlock/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "dnnlock/internal/nn.(*Conv2D).forwardInto" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain package paths of their own
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// leafPackages decodes a gzipped pprof CPU profile and counts samples by
// the package of their leaf (innermost, after inlining) function. Only the
// handful of profile.proto fields this needs are read: Profile.sample (2),
// .location (4), .function (5), .string_table (6); Sample.location_id (1),
// .value (2); Location.id (1), .line (4); Line.function_id (1);
// Function.id (1), .name (2).
func leafPackages(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		decodeErr error
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			decodeErr = errors.Join(decodeErr, protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					ids := packedOrOne(v, b)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2:
					if vals := packedOrOne(v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			decodeErr = errors.Join(decodeErr, protoFields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return // later lines are the callers it was inlined into
					}
					haveLine = true
					decodeErr = errors.Join(decodeErr, protoFields(b, func(f int, v uint64, _ []byte) {
						if f == 1 {
							fn = v
						}
					}))
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, protoFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	counts := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		counts[packageOf(name)] += s.count
	}
	return counts, nil
}

// packedOrOne reads a repeated varint field that arrived either as one
// varint (b == nil) or packed into a length-delimited run.
func packedOrOne(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

// protoFields walks one protobuf message, calling fn with each field
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			fn(field, 0, b)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
