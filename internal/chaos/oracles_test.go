package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
	"nilicon/internal/workloads"
)

// TestAckedOutputCatchesLostUpdate loses an acknowledged write: after
// the writer stops, one key's 1 KB record in the serving container's
// heap is overwritten. The acked-output verdict must fail and name the
// key; the same campaign without the overwrite passes.
func TestAckedOutputCatchesLostUpdate(t *testing.T) {
	const key = 17
	cfg := Config{Seed: 13, Opts: core.AllOpts(), OptName: "all", Terminal: TerminalNone, Events: -1}
	cfg.defaults()
	run := func(lose bool) Verdict {
		c := &campaign{cfg: cfg, sched: drawSchedule(cfg)}
		c.build()
		c.emitHeader()
		if lose {
			c.clock.ScheduleAt(simtime.Time(warmup+cfg.Duration+terminalGap+simtime.Millisecond), func() {
				// The writer's keys take record slots in write order, so
				// key k's record is slot k of process 0's heap.
				addr := c.srv.srv.State().HeapStarts[0] + key*recordBytes
				if err := c.repl.Ctr.Procs[0].Mem.Write(addr, make([]byte, recordBytes)); err != nil {
					t.Error(err)
				}
			})
		}
		c.execute()
		return findVerdict(t, c.finish(), "acked-output")
	}
	if v := run(false); !v.OK {
		t.Fatalf("unmutated campaign failed acked-output: %s", v.Detail)
	}
	v := run(true)
	if v.OK || !strings.Contains(v.Detail, "GET k17 ") {
		t.Fatalf("lost update of k%d: acked-output OK=%v %q, want a FAIL naming the key", key, v.OK, v.Detail)
	}
	t.Logf("lost update: %s", v.Detail)
}

// TestAckedOutputCatchesServerAppError declares a keyspace smaller than
// the keys the writer trace writes, so the server's heap cannot hold
// them: the heap-full app error must fail acked-output, while the same
// trace with its true keyspace passes.
func TestAckedOutputCatchesServerAppError(t *testing.T) {
	run := func(keys int) Verdict {
		dur := 600 * simtime.Millisecond
		tr := writerTrace(dur)
		if keys > 0 {
			tr.Header.Keys = keys
		}
		return findVerdict(t, Run(Config{Seed: 13, Opts: core.AllOpts(), OptName: "all",
			Duration: dur, Terminal: TerminalNone, Events: -1, Traffic: tr}), "acked-output")
	}
	if v := run(0); !v.OK {
		t.Fatalf("true keyspace failed acked-output: %s", v.Detail)
	}
	v := run(8)
	if v.OK || !strings.Contains(v.Detail, "server app error: heap full") {
		t.Fatalf("8-record heap: acked-output OK=%v %q, want a heap-full FAIL", v.OK, v.Detail)
	}
	t.Logf("8-record heap: %s", v.Detail)
}

// TestAckFailureNamesTheFirstClientFault: on top of server app errors
// (above), acked-output fails on a client's protocol violation and on a
// SET still awaiting its reply, each named with its client; a GET still
// in flight is the read-back's business, not a lost ack.
func TestAckFailureNamesTheFirstClientFault(t *testing.T) {
	prof := workloads.Redis().Profile()
	srv := workloads.NewServer(prof)
	srv.Install(core.NewShardedCluster(simtime.NewClock(), core.ClusterParams{}).NewProtectedContainer("kv", "10.0.0.10", 1))
	send := func(reqs ...traffic.Request) *workloads.Conn {
		c := &workloads.Conn{} // never connected: every request stays in flight
		for _, r := range reqs {
			c.Send(r)
		}
		return c
	}
	get := traffic.Request{ID: 3, Op: traffic.OpGet, Key: 2}
	set := traffic.Request{ID: 4, Op: traffic.OpSet, Key: 9, Size: 64}
	for _, tc := range []struct {
		name  string
		conns []*workloads.Conn
		want  string
	}{
		{"clean", []*workloads.Conn{send(get)}, ""},
		{"unacked-set", []*workloads.Conn{send(get), send(get, set)}, "client 1: SET k9 (request 4) got no reply"},
		{"client-error", []*workloads.Conn{{Errors: []string{"reply op 'G' to set of key 9"}}, send(set)},
			"client 0: reply op 'G' to set of key 9"},
	} {
		c := &campaign{srv: &kvServer{prof: prof, srv: srv},
			clients: &clients{conns: [][]*workloads.Conn{tc.conns}}}
		if got := c.ackFailure(); got != tc.want {
			t.Errorf("%s: ackFailure = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestReplayVerdict: the replay-divergence oracle fails on the first
// failover that produced no replay stats or diverged, naming it and the
// segment, and passes only when every failover replayed cleanly.
func TestReplayVerdict(t *testing.T) {
	clean := &core.ReplayStats{Segments: 3}
	for _, tc := range []struct {
		name   string
		recs   []replayRecord
		ok     bool
		detail string
	}{
		{"all-replayed", []replayRecord{{"failover 1", clean}, {"failover 2", clean}}, true,
			"2 failovers, all replayed to recorded egress digests"},
		{"no-stats", []replayRecord{{"failover 1", clean}, {"pair p03", nil}}, false,
			"pair p03 produced no replay stats"},
		{"diverged", []replayRecord{{"failover 1", &core.ReplayStats{Diverged: true, DivergedSeq: 7}}, {"failover 2", nil}}, false,
			"failover 1 diverged at segment 7"},
	} {
		v := replayVerdict(len(tc.recs), tc.recs)
		if v.Oracle != "replay-divergence" || v.OK != tc.ok || v.Detail != tc.detail {
			t.Errorf("%s: verdict %+v, want OK=%v %q", tc.name, v, tc.ok, tc.detail)
		}
	}
}
