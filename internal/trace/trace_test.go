package trace

import (
	"strings"
	"testing"

	"nilicon/internal/simtime"
)

func TestTimelineCSV(t *testing.T) {
	var tl Timeline
	tl.Record(EpochRecord{
		Pair:  "p00",
		Epoch: 1, At: simtime.Time(64 * simtime.Millisecond),
		Stop: 5 * simtime.Millisecond, FreezeWait: 100 * simtime.Microsecond,
		MemCopy: 300 * simtime.Microsecond, SockColl: 200 * simtime.Microsecond,
		StateBytes: 1 << 20, DirtyPages: 250,
		Transfer: 900 * simtime.Microsecond, AckWait: 60 * simtime.Microsecond,
		Commit: 6 * simtime.Millisecond, Inflight: 2,
		WireBytes: 2048, FullFrames: 1, DeltaFrames: 200, ZeroFrames: 30, DedupFrames: 19,
		Lease: "held",
	})
	tl.Record(EpochRecord{Pair: "p01", Epoch: 2, At: simtime.Time(128 * simtime.Millisecond)})
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "epoch,at_ms,stop_us") {
		t.Fatalf("header = %q", lines[0])
	}
	// Pair-era producers leave Replicas/Quorum zero; the CSV reads 2/1.
	if lines[1] != "1,64.000,5000,100,300,200,1048576,250,900,60,6000,2,2048,1,200,30,19,held,2,1,p00" {
		t.Fatalf("row = %q", lines[1])
	}
	// A record without a lease tag (pre-lease producer) reads "off".
	if !strings.HasSuffix(lines[2], ",off,2,1,p01") {
		t.Fatalf("row = %q", lines[2])
	}
	if tl.Len() != 2 {
		t.Fatalf("Len = %d", tl.Len())
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "epoch,") {
		t.Fatal("header missing on empty timeline")
	}
}

// TestTimelineChainColumns pins the chain columns: a chain producer's
// replicas/quorum values land in their own CSV cells, and a mid-series
// fence (replicas stepping down) is visible.
func TestTimelineChainColumns(t *testing.T) {
	var tl Timeline
	tl.Record(EpochRecord{Pair: "c00", Epoch: 1, Lease: "held", Replicas: 3, Quorum: 2})
	tl.Record(EpochRecord{Pair: "c00", Epoch: 2, Lease: "held", Replicas: 2, Quorum: 1})
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.HasSuffix(lines[1], ",held,3,2,c00") {
		t.Fatalf("chain row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",held,2,1,c00") {
		t.Fatalf("post-fence row = %q", lines[2])
	}
	hdr := strings.Split(lines[0], ",")
	seen := map[string]int{}
	for _, h := range hdr {
		seen[h]++
	}
	// Keyed-collision guard: every header cell is unique — a duplicated
	// column name would silently shadow one series in any keyed reader.
	for h, n := range seen {
		if n > 1 {
			t.Fatalf("header column %q appears %d times", h, n)
		}
	}
	if seen["replicas"] != 1 || seen["quorum"] != 1 {
		t.Fatalf("chain columns missing from header %q", lines[0])
	}
}
