package traffic

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse. Whatever it accepts must be
// a trace Parse promises: every non-blank line one whole JSON value,
// at least one request, positive unique IDs, non-decreasing arrivals
// within [0, one virtual day], at most 39,000 clients and every client
// inside the header's range, known ops.
// An accepted trace must also survive an
// Encode/Parse round trip byte for byte.
//
// The committed corpus (testdata/fuzz/FuzzParse) holds the seeds: an
// empty input, a valid trace, truncated JSON, an unknown field and a
// number too large for its field.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !json.Valid([]byte(line)) {
				t.Fatalf("accepted line %d, which is not one JSON value: %q", i+1, line)
			}
		}
		if tr.Header.Version != TraceVersion || tr.Header.Clients <= 0 || tr.Header.Clients > MaxClients || len(tr.Reqs) == 0 {
			t.Fatalf("accepted header %+v with %d requests", tr.Header, len(tr.Reqs))
		}
		seen := make(map[uint64]bool)
		for i, r := range tr.Reqs {
			switch {
			case r.ID == 0 || seen[r.ID]:
				t.Fatalf("request %d: id %d zero or repeated", i, r.ID)
			case r.At < 0 || r.At > maxAt || (i > 0 && r.At < tr.Reqs[i-1].At):
				t.Fatalf("request %d: arrival %d negative, past a day or out of order", i, r.At)
			case r.Client < 0 || r.Client >= tr.Header.Clients:
				t.Fatalf("request %d: client %d outside [0,%d)", i, r.Client, tr.Header.Clients)
			case r.Op != OpSet && r.Op != OpGet:
				t.Fatalf("request %d: op %q", i, r.Op)
			}
			seen[r.ID] = true
		}
		var enc1, enc2 bytes.Buffer
		if err := tr.Encode(&enc1); err != nil {
			t.Fatalf("Encode of an accepted trace: %v", err)
		}
		tr2, err := Parse(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("Parse rejects its own encoding: %v\n%s", err, enc1.Bytes())
		}
		if err := tr2.Encode(&enc2); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", enc1.Bytes(), enc2.Bytes())
		}
	})
}
