package traffic

import (
	"bytes"
	"strings"
	"testing"

	"nilicon/internal/simtime"
)

func validTrace() string {
	return `{"nilicon_trace":1,"name":"t","seed":7,"clients":2,"keys":8}
{"id":1,"at":0,"client":0,"op":"set","key":3,"size":64}
{"id":2,"at":1000000,"client":1,"op":"get","key":3,"size":64}
`
}

func TestParseRoundTrip(t *testing.T) {
	tr, err := Parse(strings.NewReader(validTrace()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(tr.Reqs) != 2 || tr.Header.Clients != 2 || tr.Header.Seed != 7 {
		t.Fatalf("parsed trace = %+v", tr)
	}
	if tr.Reqs[1].Key != 3 || tr.Reqs[1].Op != OpGet {
		t.Fatalf("request 2 = %+v", tr.Reqs[1])
	}
	if tr.Duration() != simtime.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var buf2 bytes.Buffer
	if err := tr2.Encode(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	var buf1 bytes.Buffer
	if err := tr.Encode(&buf1); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if buf1.String() != buf2.String() {
		t.Fatalf("encode/parse round trip not byte-stable")
	}
}

func TestParseRejectsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "missing header"},
		{"header-only", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n", "no requests"},
		{"bad-version", `{"nilicon_trace":9,"name":"t","seed":0,"clients":1,"keys":1}` + "\n", "version"},
		{"zero-clients", `{"nilicon_trace":1,"name":"t","seed":0,"clients":0,"keys":1}` + "\n", "clients"},
		{"truncated-line", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"set","ke`, "truncated or malformed"},
		{"two-records-one-line", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"set","key":0,"size":1}{"id":2,"at":0,"cl`, "data after the JSON value"},
		{"header-trailing-data", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1} x` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"set","key":0,"size":1}` + "\n", "data after the JSON value"},
		{"out-of-order", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":5000,"client":0,"op":"set","key":0,"size":1}` + "\n" +
			`{"id":2,"at":4000,"client":0,"op":"set","key":0,"size":1}` + "\n", "out-of-order"},
		{"duplicate-id", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"set","key":0,"size":1}` + "\n" +
			`{"id":1,"at":1,"client":0,"op":"set","key":0,"size":1}` + "\n", "duplicate request id"},
		{"bad-client", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":3,"op":"set","key":0,"size":1}` + "\n", "outside"},
		{"bad-op", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"del","key":0,"size":1}` + "\n", "unknown op"},
		{"negative-at", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":-5,"client":0,"op":"set","key":0,"size":1}` + "\n", "negative arrival"},
		{"fanout-key", `{"nilicon_trace":1,"name":"t","seed":0,"clients":1,"keys":1}` + "\n" +
			`{"id":1,"at":0,"client":0,"op":"get","key":0,"size":1,"fanout":2}` + "\n", `unknown field "fanout"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Golden determinism: the same seed must synthesize a byte-identical
// trace, and different profiles/seeds must differ.
func TestSynthesizeGoldenDeterminism(t *testing.T) {
	for _, profile := range Profiles() {
		cfg, err := Profile(profile, 42)
		if err != nil {
			t.Fatalf("Profile(%s): %v", profile, err)
		}
		cfg.Duration = 500 * simtime.Millisecond
		var a, b bytes.Buffer
		if err := Synthesize(cfg).Encode(&a); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := Synthesize(cfg).Encode(&b); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if a.String() != b.String() {
			t.Fatalf("profile %s: same seed produced different traces", profile)
		}
		if _, err := Parse(&a); err != nil {
			t.Fatalf("profile %s: synthesized trace does not parse: %v", profile, err)
		}
		cfg2 := cfg
		cfg2.Seed = 43
		var c bytes.Buffer
		if err := Synthesize(cfg2).Encode(&c); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if b.String() == c.String() {
			t.Fatalf("profile %s: seeds 42 and 43 produced identical traces", profile)
		}
	}
}

func TestSynthesizeShapes(t *testing.T) {
	base := SynthConfig{Seed: 1, Duration: simtime.Second, Rate: 2000, Keys: 64, Clients: 8}

	uni := Synthesize(base)
	zipfCfg := base
	zipfCfg.KeyDist = "zipf"
	zipf := Synthesize(zipfCfg)
	// Zipf must concentrate mass on the hottest key far beyond uniform.
	hottest := func(tr *Trace) float64 {
		counts := map[uint64]int{}
		for _, r := range tr.Reqs {
			counts[r.Key]++
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return float64(max) / float64(len(tr.Reqs))
	}
	if hu, hz := hottest(uni), hottest(zipf); hz < 3*hu {
		t.Fatalf("zipf hottest-key share %.3f not ≫ uniform %.3f", hz, hu)
	}

	burstCfg := base
	burstCfg.Envelope = "burst"
	burst := Synthesize(burstCfg)
	if len(burst.Reqs) <= len(uni.Reqs) {
		t.Fatalf("burst envelope did not add load: %d vs %d requests", len(burst.Reqs), len(uni.Reqs))
	}

	slowCfg := base
	slowCfg.SlowFrac = 0.25
	slow := Synthesize(slowCfg)
	if len(slow.Header.SlowClients) != 2 {
		t.Fatalf("SlowClients = %v, want 2 of 8", slow.Header.SlowClients)
	}

	paretoCfg := base
	paretoCfg.Arrival = "pareto"
	pareto := Synthesize(paretoCfg)
	// Heavy-tailed arrivals: the max gap dwarfs the mean gap.
	maxGap, n := int64(0), int64(len(pareto.Reqs))
	for i := 1; i < len(pareto.Reqs); i++ {
		if g := pareto.Reqs[i].At - pareto.Reqs[i-1].At; g > maxGap {
			maxGap = g
		}
	}
	meanGap := pareto.Reqs[len(pareto.Reqs)-1].At / n
	if maxGap < 10*meanGap {
		t.Fatalf("pareto max gap %dns not heavy-tailed vs mean %dns", maxGap, meanGap)
	}
}

func TestRecorderCapturesReplayableTrace(t *testing.T) {
	rec := NewRecorder("capture:test", 2, 1000)
	if _, err := rec.Trace(); err == nil {
		t.Fatalf("empty capture produced a trace")
	}
	rec.Record(500, 0, OpSet, 1, 16) // before start: clamps to 0
	rec.Record(2000, 1, OpGet, 2, 16)
	rec.Record(3000, 0, OpSet, 1, 16)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.Reqs[0].At != 0 || tr.Reqs[1].At != 1000 || tr.Header.Keys != 2 {
		t.Fatalf("capture = %+v", tr)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Parse(&buf); err != nil {
		t.Fatalf("captured trace does not parse: %v", err)
	}
}
