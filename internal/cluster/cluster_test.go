package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// TestPlacementAntiAffinity: the fleet's placement engine puts pair p's
// primary on worker p mod workers and its backup on the next worker in
// the ring, never on a spare.
func TestPlacementAntiAffinity(t *testing.T) {
	const workers = 4
	pls, err := Place(Params{Workers: workers, Spares: 2, Pairs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 8 {
		t.Fatalf("placements = %d", len(pls))
	}
	for p, pl := range pls {
		if pl.Pair != p || pl.Primary != p%workers {
			t.Fatalf("placement %d = %+v, want primary %d", p, pl, p%workers)
		}
		if len(pl.Backups) != 1 || pl.Backups[0] != (p+1)%workers {
			t.Fatalf("placement %d backups = %v, want [%d] (ring next)", p, pl.Backups, (p+1)%workers)
		}
	}
}

// TestPlacementCapacity: pairs on 2 workers put one primary core on
// every other pair's host, so 16 pairs use all hostCores of both and a
// 17th does not fit; one worker cannot hold a pair at all.
func TestPlacementCapacity(t *testing.T) {
	if _, err := Place(Params{Workers: 2, Pairs: 16}); err != nil {
		t.Fatalf("16 pairs that fill 2 hosts' cores rejected: %v", err)
	}
	if _, err := Place(Params{Workers: 2, Pairs: 17}); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("17 pairs on 2 hosts: err = %v, want out of cores", err)
	}
	if _, err := Place(Params{Workers: 1, Pairs: 2}); err == nil {
		t.Fatal("single-worker placement accepted (anti-affinity impossible)")
	}
}

// TestFleetNeedsAWorkload: a fleet brings its own workload; there is no
// default.
func TestFleetNeedsAWorkload(t *testing.T) {
	if _, err := NewSharded(simtime.NewClock(), Params{}); err == nil {
		t.Fatal("a fleet without a workload was built")
	}
}

// newTestFleet builds a fleet of p on a fresh engine, each pair
// running a dirtyLoop seeded from p.Seed.
func newTestFleet(t *testing.T, p Params) (*simtime.Clock, *Fleet) {
	t.Helper()
	p.Workload = dirtyLoops(p.Seed)
	f, err := NewSharded(simtime.NewClock(), p)
	if err != nil {
		t.Fatal(err)
	}
	return f.Clock, f
}

func TestFleetSteadyState(t *testing.T) {
	clock, f := newTestFleet(t, Params{Workers: 3, Spares: 1, Pairs: 4, Seed: 1})
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	for _, pr := range f.Pairs {
		if pr.State != Protected {
			t.Fatalf("pair %s state = %v after warmup", pr.ID, pr.State)
		}
		com, ok := pr.Repl.Backup.CommittedEpoch()
		if !ok || com < 10 {
			t.Fatalf("pair %s committed = %d/%v, want >= 10", pr.ID, com, ok)
		}
		wl := pr.Workload.(*dirtyLoop)
		if wl.seq == 0 {
			t.Fatalf("pair %s workload never ran", pr.ID)
		}
	}

	// Timeline streams are namespaced by pair ID: all four pairs present,
	// and each pair's records form its own consistent epoch series.
	var pairs []string
	for _, r := range f.Timeline.Records() {
		if !slices.Contains(pairs, r.Pair) {
			pairs = append(pairs, r.Pair)
		}
	}
	if len(pairs) != 4 {
		t.Fatalf("timeline pairs = %v, want 4 distinct", pairs)
	}
	for _, id := range pairs {
		var recs []trace.EpochRecord
		for _, r := range f.Timeline.Records() {
			if r.Pair == id {
				recs = append(recs, r)
			}
		}
		if len(recs) == 0 {
			t.Fatalf("pair %s has no timeline records", id)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Epoch <= recs[i-1].Epoch {
				t.Fatalf("pair %s epoch series not increasing: %d then %d",
					id, recs[i-1].Epoch, recs[i].Epoch)
			}
		}
	}

	// The spare stayed empty.
	if sp := f.Hosts[3]; sp.PagesUsed != 0 {
		t.Fatalf("spare host used: pages=%d", sp.PagesUsed)
	}
}

// TestFleetHostFailureConcurrentFailover kills one host and checks that
// every pair whose primary ran there fails over in the same virtual-time
// instant, every pair backed there is fenced, and rolling re-protection
// returns the whole fleet to Protected.
func TestFleetHostFailureConcurrentFailover(t *testing.T) {
	clock, f := newTestFleet(t, Params{Workers: 3, Spares: 1, Pairs: 4, Seed: 2})
	var events []string
	f.Eventf = func(format string, args ...any) {
		events = append(events, fmt.Sprintf("t=%d ", int64(clock.Now()))+fmt.Sprintf(format, args...))
	}
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	// Ring placement with W=3: host0 runs primaries of p00 and p03 and
	// the backup of p02.
	f.KillHost(0)
	clock.RunFor(4 * simtime.Second)

	if f.Hosts[0].Alive {
		t.Fatal("detector never declared host0 dead")
	}
	for _, pr := range f.Pairs {
		if pr.State != Protected {
			t.Fatalf("pair %s state = %v after recovery window (events:\n%s)",
				pr.ID, pr.State, strings.Join(events, "\n"))
		}
		if pr.PrimaryHost == 0 || pr.ReplicaHosts[0] == 0 {
			t.Fatalf("pair %s still placed on the dead host", pr.ID)
		}
		if pr.PrimaryHost == pr.ReplicaHosts[0] {
			t.Fatalf("pair %s lost anti-affinity", pr.ID)
		}
	}
	p0, p2, p3 := f.Pairs[0], f.Pairs[2], f.Pairs[3]
	if p0.Failovers != 1 || p3.Failovers != 1 {
		t.Fatalf("failovers: p00=%d p03=%d, want 1 and 1", p0.Failovers, p3.Failovers)
	}
	if p2.Fences != 1 {
		t.Fatalf("p02 fences = %d, want 1", p2.Fences)
	}
	if f.Pairs[1].Failovers != 0 || f.Pairs[1].Fences != 0 {
		t.Fatalf("untouched pair p01 transitioned: failovers=%d fences=%d",
			f.Pairs[1].Failovers, f.Pairs[1].Fences)
	}

	// Concurrency: both failover-start events carry the same timestamp.
	var starts []string
	for _, e := range events {
		if strings.Contains(e, "failover-start") {
			starts = append(starts, strings.Fields(e)[0])
		}
	}
	if len(starts) != 2 {
		t.Fatalf("failover-start events = %d, want 2:\n%s", len(starts), strings.Join(events, "\n"))
	}
	if starts[0] != starts[1] {
		t.Fatalf("failovers not concurrent: %s vs %s", starts[0], starts[1])
	}

	if f.FailoverLatencies.N() != 2 {
		t.Fatalf("failover latency samples = %d", f.FailoverLatencies.N())
	}
	if max := f.FailoverLatencies.Percentile(100); max > 1.0 {
		t.Fatalf("failover latency %.3fs implausibly high", max)
	}

	// Workloads resumed: sequence counters advance after recovery.
	before := make(map[string]uint64)
	for _, pr := range f.Pairs {
		before[pr.ID] = pr.Workload.(*dirtyLoop).seq
	}
	clock.RunFor(200 * simtime.Millisecond)
	for _, pr := range f.Pairs {
		if got := pr.Workload.(*dirtyLoop).seq; got <= before[pr.ID] {
			t.Fatalf("pair %s workload stalled after recovery (%d -> %d)", pr.ID, before[pr.ID], got)
		}
	}
}

// TestFleetReprotectOntoLoadedHost re-protects onto hosts already
// running active pairs (no spares) and asserts the shared-NIC fairness
// properties: co-located healthy pairs keep committing epochs while the
// initial sync streams, and no pair's cumulative-ack watermark ever
// regresses.
func TestFleetReprotectOntoLoadedHost(t *testing.T) {
	clock, f := newTestFleet(t, Params{Workers: 3, Spares: 0, Pairs: 3, Seed: 3})
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	// Watermark oracle: per replicator generation (a new replicator after
	// failover/reprotect starts a fresh epoch space), the cumulative-ack
	// watermark must be monotonic.
	lastMark := make(map[any]uint64)
	var regressions []string
	sampler := simtime.NewTicker(clock, simtime.Millisecond, func() {
		for _, pr := range f.Pairs {
			if pr.State != Protected && pr.State != Resyncing {
				continue
			}
			mark, ok := pr.Repl.AckedThrough()
			if !ok {
				continue
			}
			if prev, seen := lastMark[pr.Repl]; seen && mark < prev {
				regressions = append(regressions,
					fmt.Sprintf("pair %s watermark %d -> %d at t=%d", pr.ID, prev, mark, int64(clock.Now())))
			}
			lastMark[pr.Repl] = mark
		}
	})
	defer sampler.Stop()

	// Ring with W=3, no spares: killing host2 takes p02's primary and
	// p01's backup. Both re-protections must land on hosts already
	// running pairs (host0 and host1 are all that remain).
	healthy := f.Pairs[0]
	comBefore, _ := healthy.Repl.Backup.CommittedEpoch()
	f.KillHost(2)
	clock.RunFor(4 * simtime.Second)

	for _, pr := range f.Pairs {
		if pr.State != Protected {
			t.Fatalf("pair %s state = %v", pr.ID, pr.State)
		}
		if pr.PrimaryHost == 2 || pr.ReplicaHosts[0] == 2 {
			t.Fatalf("pair %s still on the dead host", pr.ID)
		}
	}
	// p00 was untouched (primary host0, backup host1, both alive) and
	// shares its primary NIC with the re-protection streams; it must have
	// kept committing throughout.
	if healthy.Failovers != 0 || healthy.Fences != 0 {
		t.Fatalf("p00 transitioned: failovers=%d fences=%d", healthy.Failovers, healthy.Fences)
	}
	comAfter, ok := healthy.Repl.Backup.CommittedEpoch()
	if !ok || comAfter <= comBefore+10 {
		t.Fatalf("co-located healthy pair starved: committed %d -> %d", comBefore, comAfter)
	}
	if len(regressions) > 0 {
		t.Fatalf("ack watermark regressed:\n%s", strings.Join(regressions, "\n"))
	}

	// Both displaced pairs were re-protected onto already-loaded hosts,
	// under the admission limit (sequential, default 1).
	if f.Pairs[1].Reprotects != 1 || f.Pairs[2].Reprotects != 1 {
		t.Fatalf("reprotects: p01=%d p02=%d", f.Pairs[1].Reprotects, f.Pairs[2].Reprotects)
	}
}

// fleetTrace runs a fixed fleet scenario and returns its event trace.
func fleetTrace(t *testing.T) string {
	t.Helper()
	clock, f := newTestFleet(t, Params{Workers: 3, Spares: 1, Pairs: 4, Seed: 7})
	var b strings.Builder
	f.Eventf = func(format string, args ...any) {
		fmt.Fprintf(&b, "t=%d ", int64(clock.Now()))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	f.Start()
	clock.RunFor(700 * simtime.Millisecond)
	f.KillHost(1)
	clock.RunFor(3 * simtime.Second)
	for _, pr := range f.Pairs {
		rel, _ := pr.Repl.ReleasedEpoch()
		com, _ := pr.Repl.Backup.CommittedEpoch()
		fmt.Fprintf(&b, "final pair=%s state=%s pri=%d bak=%d rel=%d com=%d seq=%d\n",
			pr.ID, pr.State, pr.PrimaryHost, pr.ReplicaHosts[0], rel, com,
			pr.Workload.(*dirtyLoop).seq)
	}
	fmt.Fprintf(&b, "wire=%d\n", f.WireBytes())
	return b.String()
}

func TestFleetDeterministic(t *testing.T) {
	a := fleetTrace(t)
	b := fleetTrace(t)
	if a != b {
		t.Fatalf("fleet traces differ:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "host-dead host=host01") {
		t.Fatalf("trace missing host-death event:\n%s", a)
	}
}

// TestFleetArbitratesEveryFailover: the fleet detector is the only
// arbiter for a chain of any width, a pair being the one-replica chain.
// With the detector stopped, a dead primary's replicas must neither
// promote themselves nor hold at a promotion barrier, however long
// their heartbeats stay stale. Once the detector runs again, each
// failover restores on the slot its election named.
func TestFleetArbitratesEveryFailover(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"pairs", Params{Workers: 3, Spares: 1, Pairs: 4, Seed: 2}},
		{"chains", chainParams(12)},
		{"width4", Params{Workers: 8, Spares: 1, Pairs: 4, Seed: 12, Replicas: 4, Zones: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock, f := newTestFleet(t, tc.p)
			byID := make(map[string]*Pair)
			for _, pr := range f.Pairs {
				byID[pr.ID] = pr
			}
			elected := make(map[string]int)
			restored := 0
			f.Eventf = func(format string, args ...any) {
				ev := fmt.Sprintf(format, args...)
				fields := strings.Fields(ev)
				if len(fields) < 2 || !strings.HasPrefix(fields[1], "pair=") {
					return
				}
				pr := byID[strings.TrimPrefix(fields[1], "pair=")]
				switch fields[0] {
				case "failover-start":
					elected[pr.ID] = pr.electedSlot
				case "recovered":
					slot, ok := elected[pr.ID]
					if !ok {
						t.Fatalf("%s recovered without an election", pr.ID)
					}
					ag := pr.Repl.ReplicaAgent(slot)
					if !ag.Recovered() || ag.RestoredCtr != pr.Ctr || pr.PrimaryHost != pr.ReplicaHosts[slot] {
						t.Fatalf("%s recovered off its elected slot %d (primary host %d)", pr.ID, slot, pr.PrimaryHost)
					}
					restored++
				}
			}
			f.Start()
			clock.RunFor(900 * simtime.Millisecond)

			f.detector.Stop()
			f.KillHost(0)
			clock.RunFor(2 * simtime.Second)
			for _, pr := range f.Pairs {
				if pr.PrimaryHost != 0 {
					continue
				}
				if pr.State != Protected {
					t.Fatalf("%s state = %v with the fleet detector stopped", pr.ID, pr.State)
				}
				for i := 0; i < pr.Repl.Replicas(); i++ {
					if ag := pr.Repl.ReplicaAgent(i); ag.Recovered() || ag.PromotionPending() {
						t.Fatalf("%s slot %d promoted itself (recovered=%v pending=%v)",
							pr.ID, i, ag.Recovered(), ag.PromotionPending())
					}
				}
			}

			f.detector = simtime.NewTicker(f.Clock, detectorPeriod, f.checkHosts)
			clock.RunFor(4 * simtime.Second)
			if len(elected) == 0 || restored != len(elected) {
				t.Fatalf("elections = %d, restores = %d", len(elected), restored)
			}
			for _, pr := range f.Pairs {
				if pr.State == Lost {
					t.Fatalf("%s lost", pr.ID)
				}
			}
		})
	}
}

// TestFleetDoubleFailureLosesThePair is the fault model's boundary
// (DESIGN.md §9): a pair with no live backup whose primary host dies
// is Lost, whether it still waits in the re-protection queue (Degraded)
// or its new backup's initial sync is running (Resyncing). The lost
// pair leaves the queue and the admission set, the admission slot goes
// to the next queued pair, every other pair regains protection, and no
// alive host keeps a reservation for the lost pair.
func TestFleetDoubleFailureLosesThePair(t *testing.T) {
	for _, state := range []PairState{Degraded, Resyncing} {
		t.Run(state.String(), func(t *testing.T) {
			clock, f := newTestFleet(t, Params{Workers: 4, Spares: 2, Pairs: 8, Seed: 5})
			var events []string
			f.Eventf = func(format string, args ...any) { events = append(events, fmt.Sprintf(format, args...)) }
			f.Start()
			clock.RunFor(600 * simtime.Millisecond)
			// Host 0 runs the primaries of p00 and p04 and backs p03 and
			// p07: four pairs lose protection and one resync runs at a time.
			f.KillHost(0)
			var victim *Pair
			for i := 0; victim == nil; i++ {
				if i == 500 {
					t.Fatalf("no %v pair with another queued behind the running resync:\n%s",
						state, strings.Join(events, "\n"))
				}
				clock.RunFor(10 * simtime.Millisecond)
				if f.ActiveResyncs() != 1 || f.QueuedReprotects() < 2 {
					continue
				}
				for _, pr := range f.Pairs {
					if pr.State == state {
						victim = pr
						break
					}
				}
			}
			target, targetPages := -1, 0
			if state == Resyncing {
				target = victim.ReplicaHosts[0]
				targetPages = f.Hosts[target].PagesUsed
			}

			dead := f.Hosts[victim.PrimaryHost]
			f.KillHost(dead.Index)
			f.declareHostDead(dead)
			if victim.State != Lost {
				t.Fatalf("%s state = %v after its primary host died, want lost", victim.ID, victim.State)
			}
			if slices.Contains(f.reprotectQ, victim.Index) || slices.Contains(f.resyncActive, victim.Index) {
				t.Fatalf("lost %s still queued %v or resyncing %v", victim.ID, f.reprotectQ, f.resyncActive)
			}
			if target >= 0 && f.Hosts[target].PagesUsed != targetPages-pairBackupPgs {
				t.Fatalf("resync target %s holds %d pages, want %d back from lost %s",
					f.Hosts[target].Name, f.Hosts[target].PagesUsed, targetPages-pairBackupPgs, victim.ID)
			}

			// The next pump tick admits the queue's head.
			if len(f.reprotectQ) == 0 {
				t.Fatal("no pair left queued behind the lost one")
			}
			head := f.Pairs[f.reprotectQ[0]]
			for i := 0; head.State == Degraded; i++ {
				if i == 100 {
					t.Fatalf("queued %s never admitted after %s was lost", head.ID, victim.ID)
				}
				clock.RunFor(reprotectPeriod)
			}

			for i := 0; f.QueuedReprotects()+f.ActiveResyncs() > 0; i++ {
				if i == 100 {
					t.Fatalf("re-protection never drained: queued=%v resyncing=%v", f.reprotectQ, f.resyncActive)
				}
				clock.RunFor(100 * simtime.Millisecond)
			}
			pages := map[int]int{}
			for _, pr := range f.Pairs {
				if pr.State == Lost {
					continue
				}
				if pr.State != Protected {
					t.Fatalf("pair %s state = %v after re-protection drained", pr.ID, pr.State)
				}
				pages[pr.PrimaryHost] += pairPrimaryPgs
				pages[pr.ReplicaHosts[0]] += pairBackupPgs
			}
			for _, h := range f.Hosts {
				if h.Alive && h.PagesUsed != pages[h.Index] {
					t.Fatalf("host %s reserves %d pages, its pairs need %d",
						h.Name, h.PagesUsed, pages[h.Index])
				}
			}

			f.Quiesce()
			clock.RunFor(2 * simtime.Second)
			if flows, queued := f.DrainStats(); flows != 0 || queued != 0 {
				t.Fatalf("after quiesce: %d transfer flows, %d bytes queued", flows, queued)
			}
		})
	}
}
