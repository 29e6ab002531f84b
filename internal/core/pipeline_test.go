package core

import (
	"testing"

	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

func pipelinedConfig() Config {
	cfg := DefaultConfig()
	cfg.Opts = PipelinedOpts()
	return cfg
}

// dirtyManyPages installs a task that re-dirties a large region every
// epoch so the dirty-page copy and the transfer both matter.
func dirtyManyPages(env *testEnv, pages int) {
	p := env.app.proc
	big := p.Mem.Mmap(uint64(pages+1000)*simkernel.PageSize,
		simkernel.ProtRead|simkernel.ProtWrite, "", env.ctr.ID)
	seq := byte(0)
	env.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		seq++
		_ = p.Mem.Touch(big, 0, pages, seq)
		return simtime.Millisecond, 10 * simtime.Millisecond
	})
}

// TestEpochRecordsFollowTheFork checks the epoch pipeline's one fork by
// the records it writes. A stop-and-copy run submits at the boundary
// and resumes the container only when its transfer ends, so its stop
// covers the transfer and its commit is transfer plus ack wait. An
// overlapped run resumes at the end of the pause and submits then, so
// its commit is stop plus transfer plus ack wait, and an image that
// outlasts the pause streams past it.
func TestEpochRecordsFollowTheFork(t *testing.T) {
	stopAndCopy := AllOpts()
	stopAndCopy.StagingBuffer = false
	for _, tc := range []struct {
		name    string
		opts    OptSet
		overlap bool
	}{
		{"basic", BasicOpts(), false},
		{"stop-and-copy", stopAndCopy, false},
		{"all", AllOpts(), true},
		{"pipelined", PipelinedOpts(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.overlapsTransfer() != tc.overlap {
				t.Fatalf("overlapsTransfer = %v, want %v", !tc.overlap, tc.overlap)
			}
			cfg := DefaultConfig()
			cfg.Opts = tc.opts
			env := newTestEnv(t, cfg)
			tl := recordEpochs(env.repl)
			dirtyManyPages(env, 2000)
			env.repl.Start()
			env.clock.RunUntil(simtime.Time(2 * simtime.Second))
			env.repl.Stop()
			if tl.Len() == 0 {
				t.Fatal("no epoch records")
			}
			outlasts := 0
			for _, rec := range tl.Records() {
				if rec.Transfer > rec.Stop {
					outlasts++
				}
				if !tc.overlap {
					if rec.Stop < rec.Transfer {
						t.Errorf("epoch %d: stop %v < transfer %v: the container resumed before its image arrived", rec.Epoch, rec.Stop, rec.Transfer)
					}
					if rec.Commit != rec.Transfer+rec.AckWait {
						t.Errorf("epoch %d: commit %v != transfer %v + ack %v: the transfer did not start at the boundary", rec.Epoch, rec.Commit, rec.Transfer, rec.AckWait)
					}
					continue
				}
				if rec.Commit != rec.Stop+rec.Transfer+rec.AckWait {
					t.Errorf("epoch %d: commit %v != stop %v + transfer %v + ack %v: the transfer did not start at the end of the pause", rec.Epoch, rec.Commit, rec.Stop, rec.Transfer, rec.AckWait)
				}
			}
			if tc.overlap && outlasts == 0 {
				t.Errorf("no image outlasted its pause in %d records; the test shows no overlap", tl.Len())
			}
			t.Logf("%d records, %d with transfer > stop", tl.Len(), outlasts)
		})
	}
}

func TestStageTimesRecorded(t *testing.T) {
	env := newTestEnv(t, pipelinedConfig())
	tl := recordEpochs(env.repl)
	dirtyManyPages(env, 2000)
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(simtime.Second))
	env.repl.Stop()
	if tl.Len() == 0 {
		t.Fatal("no epoch records")
	}
	transfer := epochMean(tl, func(rec trace.EpochRecord) float64 { return rec.Transfer.Seconds() })
	if transfer <= 0 {
		t.Fatalf("Transfer mean = %v, want >0", transfer)
	}
	// The commit latency covers the whole pipeline: it must be at least
	// the stop plus the transfer.
	commit := epochMean(tl, func(rec trace.EpochRecord) float64 { return rec.Commit.Seconds() })
	if commit < epochMean(tl, stopSeconds)+transfer {
		t.Fatalf("commit mean %.3fms below stop+transfer", commit*1000)
	}
}

func TestPipelinedShortensStop(t *testing.T) {
	run := func(cfg Config) (float64, uint64) {
		env := newTestEnv(t, cfg)
		tl := recordEpochs(env.repl)
		dirtyManyPages(env, 5000)
		env.repl.Start()
		env.clock.RunUntil(simtime.Time(2 * simtime.Second))
		env.repl.Stop()
		return epochMean(tl, stopSeconds), env.repl.Epochs()
	}
	staged, epochsStaged := run(DefaultConfig())
	piped, epochsPiped := run(pipelinedConfig())
	if piped >= staged {
		t.Fatalf("pipelined transfer did not shorten stop: pipelined=%.3fms staged=%.3fms",
			piped*1000, staged*1000)
	}
	// Shorter pauses at the same interval mean at least as many epochs.
	if epochsPiped < epochsStaged {
		t.Fatalf("pipelined run made fewer epochs: %d < %d", epochsPiped, epochsStaged)
	}
}

// TestPipelinedOutputCommitProperty is the observable output-commit
// invariant with the overlapped transfer: the container keeps executing
// epochs while acknowledgments are withheld, yet the client must not
// observe a single byte from any unacknowledged epoch.
func TestPipelinedOutputCommitProperty(t *testing.T) {
	env := newTestEnv(t, pipelinedConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	client.send("SET k before")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 1 {
		t.Fatalf("warmup replies = %v", client.replies)
	}

	// Withhold acknowledgments: checkpoints still reach and commit at the
	// backup, heartbeats still flow, the container keeps running — only
	// the ack path is cut.
	env.cl.AckLink.SetDown(true)
	epochsAt := env.repl.Epochs()
	repliesAt := len(client.replies)
	client.send("SET k during")
	client.send("GET k")
	env.clock.RunFor(500 * simtime.Millisecond)

	if env.repl.Epochs() <= epochsAt {
		t.Fatal("container stopped executing epochs while acks were withheld (overlap broken)")
	}
	if len(client.replies) != repliesAt {
		t.Fatalf("client observed %d replies from unacknowledged epochs: %v",
			len(client.replies)-repliesAt, client.replies[repliesAt:])
	}
	if env.repl.Backup.Recovered() {
		t.Fatal("spurious failover: heartbeats were supposed to keep flowing")
	}

	// Restore the ack path: future epochs ack, and releasing epoch e
	// flushes everything buffered up to e — the trapped replies drain.
	env.cl.AckLink.SetDown(false)
	env.clock.RunFor(300 * simtime.Millisecond)
	if len(client.replies) != repliesAt+2 {
		t.Fatalf("trapped replies never drained after acks resumed: %v", client.replies)
	}
	if got := client.replies[len(client.replies)-1]; got != "during" {
		t.Fatalf("GET k = %q after drain, want %q", got, "during")
	}
}

// TestPipelinedFailoverConsistency: a fault injected while epoch k's
// image is mid-stream must recover to the last acknowledged checkpoint
// with the committed data intact and the connection alive.
func TestPipelinedFailoverConsistency(t *testing.T) {
	env := newTestEnv(t, pipelinedConfig())
	dirtyManyPages(env, 3000) // make transfers long enough to be cut mid-stream
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond)
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	client.send("SET account 1000")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("setup replies = %v", client.replies)
	}

	// Fail just after an epoch boundary: with the overlapped transfer the
	// image is streaming while the container runs, so the cut lands
	// mid-transfer.
	env.clock.RunFor(31 * simtime.Millisecond)
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(3 * simtime.Second)

	if !env.repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	if err := env.repl.Backup.RecoverError(); err != nil {
		t.Fatal(err)
	}
	client.send("GET account")
	env.clock.RunFor(2 * simtime.Second)
	if got := client.replies[len(client.replies)-1]; got != "1000" {
		t.Fatalf("post-failover GET = %q, want 1000 (replies %v)", got, client.replies)
	}
	if client.sock.Reset {
		t.Fatal("client connection reset across pipelined failover")
	}
}
