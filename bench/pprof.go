package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"nilicon/bench/spec"
)

// The traced run charges each CPU-profile sample to one layer: the
// innermost nilicon/internal/<pkg> frame on its stack, so allocation and
// GC-assist samples land on the layer that caused them. Samples the
// benchmark labeled phase=setup (world building, warmup, drains) are
// left out; measured phases and the runtime's own unlabeled goroutines
// (background GC) count. Attribution needs only a small subset of
// profile.proto, decoded here with the standard library.

const internalPrefix = "nilicon/internal/"

// layerOf returns the layer a stack (innermost frame first) is charged
// to: "runtime" when no frame is in the repository's internal packages,
// "other" for internal packages outside spec.SelfPkgs.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, p := range spec.SelfPkgs {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	return "runtime"
}

// profileShares reads a gzipped CPU profile and returns each layer's
// percentage of the counted samples.
func profileShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labels["phase"] == "setup" {
			continue
		}
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, p := range spec.SelfPkgs {
		if total > 0 {
			shares[p] = 100 * float64(counts[p]) / float64(total)
		} else {
			shares[p] = 0
		}
	}
	return shares, nil
}

// profSample is one decoded sample: its function names innermost first,
// its count (the first sample value) and its string labels.
type profSample struct {
	stack  []string
	count  int64
	labels map[string]string
}

// decodeProfile parses the fields of a (possibly gzipped) profile.proto
// message that sample attribution needs.
func decodeProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]uint64 // key, str (string-table indices)
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		names   = map[uint64]uint64{}   // function → name index
		strs    []string
	)
	p := &pb{b: raw}
	for p.more() {
		switch field, wire := p.key(); {
		case field == 2 && wire == 2: // Sample
			var s rawSample
			p.msg(func(q *pb, f, w int) {
				switch {
				case f == 1: // location_id
					s.locs = q.uints(w, s.locs)
				case f == 2: // value
					s.vals = q.uints(w, s.vals)
				case f == 3 && w == 2: // Label
					var kv [2]uint64
					q.msg(func(l *pb, lf, lw int) {
						if (lf == 1 || lf == 2) && lw == 0 {
							kv[lf-1] = l.varint()
						} else {
							l.skip(lw)
						}
					})
					s.labels = append(s.labels, kv)
				default:
					q.skip(w)
				}
			})
			samples = append(samples, s)
		case field == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			p.msg(func(q *pb, f, w int) {
				switch {
				case f == 1 && w == 0:
					id = q.varint()
				case f == 4 && w == 2: // Line
					q.msg(func(l *pb, lf, lw int) {
						if lf == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					})
				default:
					q.skip(w)
				}
			})
			locFns[id] = fns
		case field == 5 && wire == 2: // Function
			var id, name uint64
			p.msg(func(q *pb, f, w int) {
				switch {
				case f == 1 && w == 0:
					id = q.varint()
				case f == 2 && w == 0:
					name = q.varint()
				default:
					q.skip(w)
				}
			})
			names[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("decode profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, rs := range samples {
		s := profSample{labels: map[string]string{}}
		if len(rs.vals) > 0 {
			s.count = int64(rs.vals[0])
		}
		for _, loc := range rs.locs {
			for _, fn := range locFns[loc] {
				s.stack = append(s.stack, str(names[fn]))
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// pb reads protobuf wire format; the first error sticks and ends input.
type pb struct {
	b   []byte
	err error
}

func (p *pb) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pb) fail(msg string) {
	if p.err == nil {
		p.err = errors.New(msg)
	}
	p.b = nil
}

func (p *pb) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail("truncated varint")
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	p.fail("varint overflow")
	return 0
}

// msg decodes a length-delimited submessage field by field; an error
// inside it becomes p's error.
func (p *pb) msg(field func(q *pb, f, w int)) {
	q := &pb{b: p.bytes()}
	for q.more() {
		f, w := q.key()
		field(q, f, w)
	}
	if q.err != nil {
		p.fail(q.err.Error())
	}
}

func (p *pb) key() (field, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail("truncated field")
		return nil
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b
}

// uints appends a repeated integer field in either encoding: one varint
// (wire type 0) or a packed run (wire type 2).
func (p *pb) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, p.varint())
	case 2:
		q := &pb{b: p.bytes()}
		for q.more() {
			dst = append(dst, q.varint())
		}
		if q.err != nil {
			p.fail(q.err.Error())
		}
		return dst
	}
	p.skip(wire)
	return dst
}

func (p *pb) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}

func (p *pb) advance(n int) {
	if n > len(p.b) {
		p.fail("truncated field")
		return
	}
	p.b = p.b[n:]
}
