package core

import (
	"fmt"
	"testing"

	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

func newReplayEnv(t *testing.T) *testEnv {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Opts = ReplayOpts()
	return newTestEnv(t, cfg)
}

func TestReplayReleaseGatesOnLogCommit(t *testing.T) {
	// The replay-mode counterpart of TestOutputDelayedUntilCommit: a
	// reply is released once its ~hundred-byte log segment is
	// acknowledged, so the observed latency must sit well under the 2ms
	// stop+commit floor the epoch gate imposes.
	env := newReplayEnv(t)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(13 * simtime.Millisecond)

	sendAt := env.clock.Now()
	client.send("SET k v")
	for i := 0; i < 200 && len(client.replies) == 0; i++ {
		env.clock.RunFor(100 * simtime.Microsecond)
	}
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("replies = %v", client.replies)
	}
	if lat := env.clock.Now().Sub(sendAt); lat >= 2*simtime.Millisecond {
		t.Fatalf("reply latency %v, want under the 2ms epoch-commit floor", lat)
	}
	if env.repl.LogSegments.Value() == 0 {
		t.Fatal("no log segments sealed")
	}
	if env.repl.rec.released == 0 {
		t.Fatal("log release watermark never advanced")
	}
}

func TestReplayLostSegmentRetransmitted(t *testing.T) {
	// A segment lost to a replication-link cut holds its output plugged;
	// the deterministic 10ms retransmit re-streams it after the heal and
	// the reply flushes — no resync needed for the log path.
	env := newReplayEnv(t)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(13 * simtime.Millisecond)

	env.cl.ReplLink.SetDown(true)
	client.send("SET k v")
	env.clock.RunFor(8 * simtime.Millisecond)
	if len(client.replies) != 0 {
		t.Fatalf("reply released with the replication link down: %v", client.replies)
	}
	// Heal well before detection (~90ms of missed heartbeats).
	env.cl.ReplLink.SetDown(false)
	env.clock.RunFor(30 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("replies after heal = %v", client.replies)
	}
	if env.repl.Backup.Recovered() {
		t.Fatal("spurious failover during the 8ms cut")
	}
}

func TestReplayFailoverReplaysCommittedSuffix(t *testing.T) {
	// A write whose reply was released on log commit — and which no
	// checkpoint ever captured — must survive failover via replay of the
	// committed log suffix.
	env := newReplayEnv(t)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(13 * simtime.Millisecond)

	// Baseline write, given time to be captured by a checkpoint.
	client.send("SET account 100")
	env.clock.RunFor(30 * simtime.Millisecond)
	// Post-checkpoint write: the reply releases within ~1ms, then the
	// primary dies before the next checkpoint can capture the state.
	client.send("SET account 250")
	for i := 0; i < 100 && len(client.replies) < 2; i++ {
		env.clock.RunFor(100 * simtime.Microsecond)
	}
	if len(client.replies) != 2 {
		t.Fatalf("replies = %v", client.replies)
	}
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(2 * simtime.Second)

	if !env.repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	if err := env.repl.Backup.RecoverError(); err != nil {
		t.Fatal(err)
	}
	st := env.repl.Backup.Recovery
	if st.Replay == nil {
		t.Fatal("no replay stats on a RecordReplay failover")
	}
	if st.Replay.Diverged {
		t.Fatalf("replay diverged at seq %d", st.Replay.DivergedSeq)
	}
	if st.Replay.Segments < 1 {
		t.Fatalf("replay stats = %+v, want at least the post-checkpoint segment", st.Replay)
	}
	client.send("GET account")
	env.clock.RunFor(2 * simtime.Second)
	if got := client.replies[len(client.replies)-1]; got != "250" {
		t.Fatalf("post-failover GET = %q, want 250 (recoverable only by log replay)", got)
	}
}

func TestReplayCheckpointCommitTruncatesLog(t *testing.T) {
	// A committed checkpoint implicitly commits every segment sealed
	// before its freeze: both sides must retire them, so steady state
	// retains no log history beyond the open epoch.
	env := newReplayEnv(t)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	for i := 0; i < 20; i++ {
		env.clock.RunFor(5 * simtime.Millisecond)
		client.send(fmt.Sprintf("SET k%d v%d", i, i))
	}
	// Quiet window spanning several checkpoints.
	env.clock.RunFor(100 * simtime.Millisecond)
	if len(client.replies) != 20 {
		t.Fatalf("replies = %d, want 20", len(client.replies))
	}
	if n := env.repl.LogSegments.Value(); n < 10 {
		t.Fatalf("segments sealed = %d, want >= 10 for 20 spaced writes", n)
	}
	rec := env.repl.rec
	if len(rec.retained) != 0 {
		t.Fatalf("primary retains %d unacked segments after quiesce", len(rec.retained))
	}
	b := env.repl.Backup
	if len(b.logSegs) != 0 {
		t.Fatalf("backup retains %d segments after checkpoint commits", len(b.logSegs))
	}
	if b.logContig < rec.sealedThrough {
		t.Fatalf("backup contiguity %d below sealed watermark %d", b.logContig, rec.sealedThrough)
	}
}

// One log ack that covers several segments retires them in seq order,
// so the commit-latency samples, their Welford mean and any sum over
// them come out the same on every run.
func TestReplayAckRetiresSegmentsInSeqOrder(t *testing.T) {
	run := func() (got, want []float64, mean float64) {
		env := newReplayEnv(t)
		env.repl.Start()
		env.clock.RunFor(500 * simtime.Millisecond)
		client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
		env.clock.RunFor(13 * simtime.Millisecond)
		// Lose the log acks while three writes seal three segments.
		env.cl.AckLink.SetDown(true)
		for i := 0; i < 3; i++ {
			client.send(fmt.Sprintf("SET k%d v", i))
			env.clock.RunFor(simtime.Millisecond)
		}
		rec := env.repl.rec
		if len(rec.retained) < 3 {
			t.Fatalf("%d segments retained, want at least 3", len(rec.retained))
		}
		now := env.clock.Now()
		for _, rs := range rec.retained {
			want = append(want, now.Sub(rs.sealedAt).Seconds())
		}
		before := env.repl.LogCommitLatency.N()
		env.repl.logAckedFrom(0, rec.retained[len(rec.retained)-1].seq)
		if len(rec.retained) != 0 {
			t.Fatalf("%d segments retained after an ack covering all of them", len(rec.retained))
		}
		got = env.repl.LogCommitLatency.Samples()[before:]
		return got, want, env.repl.LogCommitLatency.Mean()
	}
	got1, want, mean1 := run()
	if fmt.Sprint(got1) != fmt.Sprint(want) {
		t.Fatalf("commit-latency samples %v, want seq order %v", got1, want)
	}
	got2, _, mean2 := run()
	if fmt.Sprint(got2) != fmt.Sprint(got1) || mean2 != mean1 {
		t.Fatalf("second run: samples %v mean %v, first run %v mean %v", got2, mean2, got1, mean1)
	}
}

// The replay-divergence oracle is sensitive to one byte: when the
// recorded digest is of egress that differs from what the replay
// regenerates in a single byte (same length), the replay diverges at
// exactly that segment.
func TestReplayOneByteEgressDivergence(t *testing.T) {
	env := newReplayEnv(t)
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(13 * simtime.Millisecond)
	client.send("SET account 100")
	env.clock.RunFor(30 * simtime.Millisecond)

	// Record the next reply with its last byte flipped.
	rec := env.repl.rec
	record := env.ctr.Stack.OnAppSend
	var tamperedSeq uint64
	env.ctr.Stack.OnAppSend = func(s *simnet.Socket, data []byte) {
		if tamperedSeq == 0 && len(data) > 0 {
			tamperedSeq = rec.nextSeq
			data = append([]byte(nil), data...)
			data[len(data)-1] ^= 1
		}
		record(s, data)
	}
	client.send("SET account 250")
	for i := 0; i < 100 && len(client.replies) < 2; i++ {
		env.clock.RunFor(100 * simtime.Microsecond)
	}
	if tamperedSeq == 0 || len(client.replies) != 2 {
		t.Fatalf("tampered seq %d, replies %v", tamperedSeq, client.replies)
	}
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(2 * simtime.Second)

	if !env.repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	rs := env.repl.Backup.Recovery.Replay
	if rs == nil || !rs.Diverged || rs.DivergedSeq != tamperedSeq {
		t.Fatalf("replay stats %+v, want divergence at seq %d", rs, tamperedSeq)
	}
}
