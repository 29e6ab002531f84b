// Package traffic is the deterministic trace-driven traffic subsystem:
// a JSONL trace format for request workloads, a capture mode that
// records an executed workload run into a trace, seeded generators that
// synthesize traces from heavy-tailed distributions, an open-loop
// replayer that fires arrivals at trace time regardless of completion
// (so queueing under brownouts is real), and a windowed SLO judge that
// turns per-request latencies into client-observed p50/p99/p99.9
// windows with a limiting-factor attribution per run (DESIGN.md §14).
//
// Everything runs in virtual time and draws randomness only from seeded
// generators, so a synthesized trace is a pure function of its config
// and a replay is a pure function of (trace, seed, options) — the same
// determinism contract the chaos engine has.
package traffic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"nilicon/internal/simtime"
)

// TraceVersion is the format version stamped into (and required of)
// every trace header.
const TraceVersion = 1

// Header is the first JSONL line of a trace: trace-wide facts a
// replayer needs before the first request.
type Header struct {
	// Version identifies the file as a nilicon trace; the field name
	// doubles as the format magic.
	Version int `json:"nilicon_trace"`
	// Name labels the trace in reports ("zipf", "capture:redis", ...).
	Name string `json:"name"`
	// Seed is the generator seed for synthesized traces (0 for captures).
	Seed int64 `json:"seed"`
	// Clients is the number of client connections the trace drives, at
	// most 39,000; every record's Client index is in [0, Clients).
	Clients int `json:"clients"`
	// Keys is the keyspace size (informational for captures; generators
	// draw keys in [0, Keys)).
	Keys int `json:"keys"`
	// SlowClients lists client indices that drain replies slowly: the
	// replayer caps their in-flight requests, so open-loop arrivals
	// beyond the cap queue client-side (slow-client backpressure).
	SlowClients []int `json:"slow_clients,omitempty"`
}

// Request is one trace record: a single client request with its
// open-loop arrival time.
type Request struct {
	// ID is unique per trace and strictly positive; replies embed it so
	// data verification can tie a stored value back to a write.
	ID uint64 `json:"id"`
	// At is the arrival time in nanoseconds of virtual time from replay
	// start. Arrivals must be non-decreasing and at most one virtual day.
	At int64 `json:"at"`
	// Client is the issuing client connection index.
	Client int `json:"client"`
	// Op is "set" or "get".
	Op string `json:"op"`
	// Key is the target key index.
	Key uint64 `json:"key"`
	// Size is the value payload size in bytes carried by a set.
	Size int `json:"size"`
}

// Ops.
const (
	OpSet = "set"
	OpGet = "get"
)

// The bounds Parse holds a trace to, so that every trace it accepts can
// be replayed as written.
const (
	// maxAt is the latest arrival: one virtual day after replay start.
	// The replayer fires request i at start + At; an At near the largest
	// Time overflows that sum, and the clock clamps the negative instant
	// to now. A day is past any run this repository makes and far below
	// that.
	maxAt = 24 * 60 * 60 * int64(simtime.Second)
	// maxClients is the most clients a header may declare. The replayer
	// allocates per declared client, and a campaign dials client i from
	// 10.(100+i/250).<chain>.(1+i%250), whose octets are valid only
	// below this count.
	maxClients = 39_000
)

// Trace is a parsed or synthesized workload trace.
type Trace struct {
	Header Header
	Reqs   []Request
}

// Duration returns the arrival time of the last request.
func (t *Trace) Duration() simtime.Duration {
	if len(t.Reqs) == 0 {
		return 0
	}
	return simtime.Duration(t.Reqs[len(t.Reqs)-1].At)
}

// Encode writes the trace as JSONL: the header line followed by one
// line per request. Field order is fixed by the struct definitions, so
// encoding is byte-deterministic.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("traffic: encode header: %w", err)
	}
	for i := range t.Reqs {
		if err := enc.Encode(&t.Reqs[i]); err != nil {
			return fmt.Errorf("traffic: encode request %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Parse reads and validates a JSONL trace. It rejects traces with no
// requests, malformed or truncated lines, out-of-order arrival
// timestamps, duplicate request IDs, and client indices outside the
// header's range — the failure modes a capture interrupted mid-write or
// a hand-edited trace would produce — and arrivals past one virtual day
// or more than 39,000 declared clients, which no replay can honour.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	tr := &Trace{}
	seen := make(map[uint64]int)
	line := 0
	sawHeader := false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			if err := parseHeader(text, &tr.Header); err != nil {
				return nil, err
			}
			sawHeader = true
			continue
		}
		var req Request
		if err := decodeLine(text, &req); err != nil {
			return nil, fmt.Errorf("traffic: line %d: truncated or malformed record: %w", line, err)
		}
		if req.ID == 0 {
			return nil, fmt.Errorf("traffic: line %d: request id must be positive", line)
		}
		if prev, dup := seen[req.ID]; dup {
			return nil, fmt.Errorf("traffic: line %d: duplicate request id %d (first at line %d)", line, req.ID, prev)
		}
		seen[req.ID] = line
		if req.At < 0 {
			return nil, fmt.Errorf("traffic: line %d: negative arrival time %d", line, req.At)
		}
		if req.At > maxAt {
			return nil, fmt.Errorf("traffic: line %d: arrival time %d past the bound of %d ns (one virtual day)", line, req.At, maxAt)
		}
		if n := len(tr.Reqs); n > 0 && req.At < tr.Reqs[n-1].At {
			return nil, fmt.Errorf("traffic: line %d: out-of-order arrival %d after %d", line, req.At, tr.Reqs[n-1].At)
		}
		if req.Client < 0 || req.Client >= tr.Header.Clients {
			return nil, fmt.Errorf("traffic: line %d: client %d outside [0,%d)", line, req.Client, tr.Header.Clients)
		}
		if req.Op != OpSet && req.Op != OpGet {
			return nil, fmt.Errorf("traffic: line %d: unknown op %q", line, req.Op)
		}
		tr.Reqs = append(tr.Reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: read trace: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("traffic: empty trace: missing header line")
	}
	if len(tr.Reqs) == 0 {
		return nil, fmt.Errorf("traffic: empty trace: header but no requests")
	}
	return tr, nil
}

// decodeLine decodes text, one trace line, into v. Unknown fields and
// anything after the first JSON value are errors.
func decodeLine(text string, v any) error {
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the JSON value at offset %d", dec.InputOffset())
	}
	return nil
}

func parseHeader(text string, h *Header) error {
	if err := decodeLine(text, h); err != nil {
		return fmt.Errorf("traffic: malformed trace header: %w", err)
	}
	if h.Version != TraceVersion {
		return fmt.Errorf("traffic: unsupported trace version %d (want %d)", h.Version, TraceVersion)
	}
	if h.Clients <= 0 || h.Clients > maxClients {
		return fmt.Errorf("traffic: trace header declares %d clients, want 1 to %d", h.Clients, maxClients)
	}
	for _, s := range h.SlowClients {
		if s < 0 || s >= h.Clients {
			return fmt.Errorf("traffic: slow client %d outside [0,%d)", s, h.Clients)
		}
	}
	return nil
}
