package core

import (
	"fmt"
	"strings"
	"testing"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// kvApp is a minimal in-container key-value server used by the core
// tests: newline-framed "SET k v" / "GET k" requests on port 6379.
// Requests are processed directly in the data callback (kernel context);
// the richer task-mediated workloads live in internal/workloads.
type kvApp struct {
	data  map[string]string
	proc  *simkernel.Process
	vma   *simkernel.VMA
	seq   byte
	lines lineReader
}

func (a *kvApp) SnapshotState() any {
	cp := make(map[string]string, len(a.data))
	for k, v := range a.data {
		cp[k] = v
	}
	return cp
}

func (a *kvApp) RestoreState(s any) {
	src := s.(map[string]string)
	a.data = make(map[string]string, len(src))
	for k, v := range src {
		a.data[k] = v
	}
}

// lineReader splits each socket's stream into newline-terminated
// requests; an incomplete tail waits for the rest of its bytes.
type lineReader struct{ partial map[*simnet.Socket]string }

func (lr *lineReader) read(s *simnet.Socket) []string {
	if lr.partial == nil {
		lr.partial = make(map[*simnet.Socket]string)
	}
	lines := strings.SplitAfter(lr.partial[s]+string(s.ReadAll()), "\n")
	lr.partial[s] = lines[len(lines)-1]
	return lines[:len(lines)-1]
}

func (a *kvApp) handle(s *simnet.Socket) {
	for _, line := range a.lines.read(s) {
		parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
		switch parts[0] {
		case "SET":
			a.data[parts[1]] = parts[2]
			// Model the write's memory footprint.
			a.seq++
			_ = a.proc.Mem.Touch(a.vma, int(a.seq)%64, 2, a.seq)
			s.Send([]byte("OK\n"))
		case "GET":
			v, ok := a.data[parts[1]]
			if !ok {
				v = "(nil)"
			}
			s.Send([]byte(v + "\n"))
		}
	}
}

// attach installs the app on a container (fresh or restored).
func (a *kvApp) attach(ctr *container.Container) {
	ctr.App = a
	ctr.Stack.Listen(6379, func(s *simnet.Socket) { s.OnData = a.handle })
	// Restored connections need their handlers back, and any unread
	// request data must be processed.
	for _, s := range ctr.Stack.Sockets() {
		s.OnData = a.handle
		if s.Available() > 0 {
			a.handle(s)
		}
	}
}

// kvClient drives the app and records responses.
type kvClient struct {
	sock    *simnet.Socket
	replies []string
	partial string
}

func newKVClient(cl *Cluster, ip simnet.Addr, serverIP simnet.Addr) *kvClient {
	c := &kvClient{}
	st := cl.NewClient(ip)
	st.Connect(serverIP, 6379, func(s *simnet.Socket) {
		c.sock = s
		s.OnData = func(s *simnet.Socket) {
			c.partial += string(s.ReadAll())
			for {
				nl := strings.IndexByte(c.partial, '\n')
				if nl < 0 {
					return
				}
				c.replies = append(c.replies, c.partial[:nl])
				c.partial = c.partial[nl+1:]
			}
		}
	})
	return c
}

func (c *kvClient) send(line string) { c.sock.Send([]byte(line + "\n")) }

// testEnv bundles a running replicated kv container.
type testEnv struct {
	clock *simtime.Clock
	cl    *Cluster
	ctr   *container.Container
	app   *kvApp
	repl  *Replicator
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	clock := simtime.NewClock()
	cl := NewShardedCluster(clock, ClusterParams{})
	ctr := cl.NewProtectedContainer("kv", "10.0.0.10", 1)
	app := &kvApp{data: make(map[string]string)}
	proc := ctr.AddProcess("kvserver", 3)
	app.proc = proc
	app.vma = proc.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", proc.PID, ctr.ID)
	_ = proc.Mem.Touch(app.vma, 0, 64, 1)
	app.attach(ctr)

	cfg.Reattach = func(rc RestoredContainer, state any) {
		app.RestoreState(state)
		app.attach(rc)
	}
	repl := NewReplicator(cl, ctr, cfg)
	return &testEnv{clock: clock, cl: cl, ctr: ctr, app: app, repl: repl}
}

// recordEpochs attaches a fresh epoch timeline to repl and returns it:
// tests read stop times, stage durations and frame mixes from its
// records.
func recordEpochs(repl *Replicator) *trace.Timeline {
	repl.Timeline = &trace.Timeline{}
	return repl.Timeline
}

// epochMean is the mean of f over tl's records (0 for none).
func epochMean(tl *trace.Timeline, f func(trace.EpochRecord) float64) float64 {
	if tl.Len() == 0 {
		return 0
	}
	var sum float64
	for _, rec := range tl.Records() {
		sum += f(rec)
	}
	return sum / float64(tl.Len())
}

// compressedFrames counts the delta, zero and dedup frames of tl's
// records.
func compressedFrames(tl *trace.Timeline) (delta, zero, dedup int) {
	for _, rec := range tl.Records() {
		delta += rec.DeltaFrames
		zero += rec.ZeroFrames
		dedup += rec.DedupFrames
	}
	return delta, zero, dedup
}

// stopSeconds is a record's stop time in seconds.
func stopSeconds(rec trace.EpochRecord) float64 { return rec.Stop.Seconds() }

func TestReplicationEpochsRun(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	tl := recordEpochs(env.repl)
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(simtime.Second))
	if env.repl.Epochs() < 20 {
		t.Fatalf("epochs = %d in 1s at 30ms interval, want ≥20", env.repl.Epochs())
	}
	mean := epochMean(tl, stopSeconds)
	if mean <= 0 {
		t.Fatal("no stop-time samples")
	}
	// Fully optimized stop times for this tiny container: well under 5ms.
	if mean > 0.005 {
		t.Fatalf("mean stop = %.2fms, too high for optimized tiny container", mean*1000)
	}
}

func TestClientServedUnderReplication(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(200 * simtime.Millisecond)
	client.send("SET name nilicon")
	env.clock.RunFor(200 * simtime.Millisecond)
	client.send("GET name")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 2 || client.replies[0] != "OK" || client.replies[1] != "nilicon" {
		t.Fatalf("replies = %v", client.replies)
	}
}

func TestOutputDelayedUntilCommit(t *testing.T) {
	// A response generated mid-epoch must not reach the client until the
	// epoch's checkpoint is acknowledged: observed latency ≥ time to the
	// next epoch boundary.
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	sendAt := env.clock.Now()
	epochsAtSend := env.repl.Epochs()
	client.send("SET k v")
	before := len(client.replies)
	for i := 0; i < 200 && len(client.replies) == before; i++ {
		env.clock.RunFor(simtime.Millisecond)
	}
	if len(client.replies) != before+1 {
		t.Fatal("reply never arrived")
	}
	// The reply may only appear after a new checkpoint covering the
	// request was taken and acknowledged.
	if env.repl.Epochs() <= epochsAtSend {
		t.Fatal("reply released before any covering checkpoint was taken")
	}
	if lat := env.clock.Now().Sub(sendAt); lat < 2*simtime.Millisecond {
		t.Fatalf("reply latency %v below stop+commit minimum", lat)
	}
}

func TestHeartbeatKeepsBackupQuiet(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(2 * simtime.Second))
	if env.repl.Backup.Recovered() {
		t.Fatal("spurious failover with healthy primary")
	}
}

func TestIdleContainerNotFalselyDetected(t *testing.T) {
	// With no client traffic the container is idle; the keep-alive
	// process must keep cpuacct advancing so no false alarm fires (§IV).
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(5 * simtime.Second))
	if env.repl.Backup.Recovered() {
		t.Fatal("false failover on idle container")
	}
}

func TestDetectionLatencyAbout90ms(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(500 * simtime.Millisecond))

	failAt := env.clock.Now()
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(simtime.Second)

	if !env.repl.Backup.Recovered() {
		t.Fatal("failure never detected")
	}
	det := env.repl.Backup.Recovery.DetectedAt.Sub(failAt)
	if det < 90*simtime.Millisecond || det > 150*simtime.Millisecond {
		t.Fatalf("detection latency = %v, want ≈90-120ms (3 missed 30ms heartbeats)", det)
	}
}

func TestFailoverPreservesCommittedData(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)

	// Write and wait until the reply is visible — by the output-commit
	// rule, the write is then durable at the backup.
	client.send("SET account 1000")
	env.clock.RunFor(200 * simtime.Millisecond)
	if len(client.replies) != 1 || client.replies[0] != "OK" {
		t.Fatalf("setup replies = %v", client.replies)
	}

	// Fail the primary.
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

	// The same connection must still work against the backup.
	client.send("GET account")
	env.clock.RunFor(2 * simtime.Second)
	if len(client.replies) != 2 || client.replies[1] != "1000" {
		t.Fatalf("post-failover replies = %v", client.replies)
	}
	if client.sock.Reset {
		t.Fatal("client connection was reset during failover")
	}
	restored := env.repl.Backup.RestoredCtr
	if restored.Stack.RSTsSent() != 0 {
		t.Fatal("backup stack sent RSTs during recovery")
	}
}

func TestFailoverInFlightRequestRetransmitted(t *testing.T) {
	// A request whose response was generated but never released (fault
	// before commit) must be re-processed at the backup after the
	// client's TCP retransmits it — and produce a consistent result.
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(500 * simtime.Millisecond) // past the initial full sync
	client := newKVClient(env.cl, "10.0.0.1", "10.0.0.10")
	env.clock.RunFor(100 * simtime.Millisecond)
	client.send("SET x durable")
	env.clock.RunFor(200 * simtime.Millisecond)

	// Send a request and fail the primary almost immediately: the reply
	// is trapped in the plug qdisc.
	client.send("SET x updated")
	env.clock.RunFor(2 * simtime.Millisecond)
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)

	env.clock.RunFor(5 * simtime.Second)
	if !env.repl.Backup.Recovered() {
		t.Fatal("no recovery")
	}
	// Client retransmission must have delivered the request to the
	// backup, which processed it.
	if got := len(client.replies); got != 2 {
		t.Fatalf("replies = %v, want OK,OK", client.replies)
	}
	client.send("GET x")
	env.clock.RunFor(time2s())
	if client.replies[len(client.replies)-1] != "updated" {
		t.Fatalf("final value = %v", client.replies)
	}
}

func time2s() simtime.Duration { return 2 * simtime.Second }

func TestRecoveryStatsPopulated(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	env.repl.Start()
	env.clock.RunFor(300 * simtime.Millisecond)
	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	var recoveredStats *RecoveryStats
	env.repl.Cfg.OnRecovered = func(_ RestoredContainer, s RecoveryStats) { recoveredStats = &s }
	env.repl.Backup.cfg.OnRecovered = env.repl.Cfg.OnRecovered
	env.clock.RunFor(3 * simtime.Second)

	st := env.repl.Backup.Recovery
	if st == nil {
		t.Fatal("no recovery stats")
	}
	if st.Restore <= 0 || st.ARP != 28*simtime.Millisecond || st.Other <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if recoveredStats == nil {
		t.Fatal("OnRecovered not called")
	}
	if st.NetworkLiveAt.Sub(st.DetectedAt) < st.Restore {
		t.Fatal("network went live before restore finished")
	}
}

func TestDiskStateConsistentAfterFailover(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	// Container writes a file each epoch.
	f := env.ctr.FS.Create("/data/journal")
	off := int64(0)
	p := env.app.proc
	env.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		entry := []byte(fmt.Sprintf("entry-%06d\n", off/13))
		_ = env.ctr.FS.WriteAt(f, off, entry)
		off += int64(len(entry))
		return 50 * simtime.Microsecond, 5 * simtime.Millisecond
	})
	env.repl.Start()
	env.clock.RunFor(simtime.Second)

	env.ctr.Disconnect()
	env.cl.ReplLink.SetDown(true)
	env.cl.AckLink.SetDown(true)
	env.clock.RunFor(time2s())

	restored := env.repl.Backup.RestoredCtr
	if restored == nil {
		t.Fatal("no restored container")
	}
	rf := restored.FS.Open("/data/journal")
	if rf == nil {
		t.Fatal("journal missing after failover")
	}
	// Every entry up to the restored size must be intact (committed
	// prefix of the journal).
	n := int(rf.Size / 13)
	if n == 0 {
		t.Fatal("restored journal empty")
	}
	got, _ := restored.FS.ReadAt(rf, 0, n*13)
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("entry-%06d\n", i)
		if string(got[i*13:(i+1)*13]) != want {
			t.Fatalf("journal entry %d corrupted: %q", i, got[i*13:(i+1)*13])
		}
	}
}

func TestStagingBufferShortensStop(t *testing.T) {
	run := func(staging bool) float64 {
		cfg := DefaultConfig()
		cfg.Opts.StagingBuffer = staging
		env := newTestEnv(t, cfg)
		tl := recordEpochs(env.repl)
		// Dirty a lot of pages per epoch so the transfer matters.
		p := env.app.proc
		big := p.Mem.Mmap(6000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, env.ctr.ID)
		seq := byte(0)
		env.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
			seq++
			_ = p.Mem.Touch(big, 0, 5000, seq)
			return simtime.Millisecond, 10 * simtime.Millisecond
		})
		env.repl.Start()
		env.clock.RunUntil(simtime.Time(2 * simtime.Second))
		env.repl.Stop()
		return epochMean(tl, stopSeconds)
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("staging buffer did not shorten stop: with=%.3fms without=%.3fms", with*1000, without*1000)
	}
}

func TestTable1LadderMonotonicity(t *testing.T) {
	// Stop time must drop (or at least not grow materially) at every
	// step of the Table I ladder.
	var stops []float64
	for _, step := range Table1Ladder() {
		cfg := DefaultConfig()
		cfg.Opts = step.Opts
		env := newTestEnv(t, cfg)
		tl := recordEpochs(env.repl)
		p := env.app.proc
		big := p.Mem.Mmap(1000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, env.ctr.ID)
		seq := byte(0)
		env.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
			seq++
			_ = p.Mem.Touch(big, 0, 300, seq)
			return simtime.Millisecond, 5 * simtime.Millisecond
		})
		env.repl.Start()
		env.clock.RunUntil(simtime.Time(3 * simtime.Second))
		env.repl.Stop()
		stops = append(stops, epochMean(tl, stopSeconds))
	}
	for i := 1; i < len(stops); i++ {
		if stops[i] > stops[i-1]*1.10 {
			t.Fatalf("ladder step %d increased stop time: %.3fms → %.3fms (all: %v)",
				i, stops[i-1]*1000, stops[i]*1000, stops)
		}
	}
	if stops[len(stops)-1]*20 > stops[0] {
		t.Fatalf("full optimization should cut stop time ≥20×: basic=%.2fms opt=%.2fms",
			stops[0]*1000, stops[len(stops)-1]*1000)
	}
}

func TestBackupCPUAccountingGrows(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	p := env.app.proc
	big := p.Mem.Mmap(2000*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", p.PID, env.ctr.ID)
	seq := byte(0)
	env.ctr.AddTask(p.MainThread(), func() (simtime.Duration, simtime.Duration) {
		seq++
		_ = p.Mem.Touch(big, 0, 1000, seq)
		return simtime.Millisecond, 10 * simtime.Millisecond
	})
	env.repl.Start()
	env.clock.RunUntil(simtime.Time(simtime.Second))
	if env.repl.Backup.CPUBusy <= 0 {
		t.Fatal("backup CPU not accounted")
	}
	// Backup must be far below one core (Table V shape).
	util := env.repl.Backup.CPUBusy.Seconds() / env.clock.Now().Seconds()
	if util > 0.6 {
		t.Fatalf("backup utilization = %.2f, too high", util)
	}
}

func TestFirewallInputBlockingDelaysNewConnections(t *testing.T) {
	// With firewall-mode input blocking, a SYN that lands in a stop
	// window is dropped and retried after ≥1s (§V-C).
	mk := func(plug bool) simtime.Duration {
		cfg := DefaultConfig()
		cfg.Opts.PlugInput = plug
		env := newTestEnv(t, cfg)
		env.repl.Start()
		env.clock.RunFor(100 * simtime.Millisecond)
		// Try new connections repeatedly; measure worst connect latency.
		worst := simtime.Duration(0)
		for i := 0; i < 20; i++ {
			st := env.cl.NewClient(simnet.Addr(fmt.Sprintf("10.0.1.%d", i+1)))
			start := env.clock.Now()
			var connected simtime.Time
			st.Connect("10.0.0.10", 6379, func(*simnet.Socket) { connected = env.clock.Now() })
			for w := 0; w < 16 && connected == 0; w++ {
				env.clock.RunFor(simtime.Second)
			}
			if connected == 0 {
				t.Fatal("connect never completed")
			}
			if d := connected.Sub(start); d > worst {
				worst = d
			}
			// Desynchronize from the epoch boundary.
			env.clock.RunFor(7 * simtime.Millisecond)
		}
		env.repl.Stop()
		return worst
	}
	plugWorst := mk(true)
	fwWorst := mk(false)
	if plugWorst > 500*simtime.Millisecond {
		t.Fatalf("plug-mode worst connect = %v, should never hit SYN retry", plugWorst)
	}
	if fwWorst < simtime.Second {
		t.Fatalf("firewall-mode worst connect = %v, expected ≥1s SYN retry", fwWorst)
	}
}
