package chaos

import (
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
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
