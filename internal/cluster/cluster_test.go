package cluster

import (
	"fmt"
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

func TestPlacementCapacity(t *testing.T) {
	if _, err := Place(Params{Workers: 2, Pairs: 5, CoresPerHost: 2}); err == nil {
		t.Fatal("5 pairs on 2 hosts with 2 cores each accepted")
	}
	if _, err := Place(Params{Workers: 2, Pairs: 4, PagesPerHost: 512}); err == nil {
		t.Fatal("4 pairs with 512 pages/host accepted (needs 4*256 primary+backup)")
	}
	if _, err := Place(Params{Workers: 1, Pairs: 2}); err == nil {
		t.Fatal("single-worker placement accepted (anti-affinity impossible)")
	}
}

func newTestFleet(t *testing.T, p Params) (*simtime.Clock, *Fleet) {
	t.Helper()
	f, err := NewSharded(simtime.NewEngine(), p)
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
		wl := pr.Workload.(*DirtyLoop)
		if wl.Seq() == 0 {
			t.Fatalf("pair %s workload never ran", pr.ID)
		}
	}

	// Timeline streams are namespaced by pair ID: all four pairs present,
	// and each pair's records form its own consistent epoch series.
	pairs := f.Timeline.Pairs()
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
	if sp := f.Hosts[3]; sp.CoresUsed != 0 || sp.PagesUsed != 0 {
		t.Fatalf("spare host used: cores=%d pages=%d", sp.CoresUsed, sp.PagesUsed)
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
	if max := f.FailoverLatencies.Max(); max > 1.0 {
		t.Fatalf("failover latency %.3fs implausibly high", max)
	}

	// Workloads resumed: sequence counters advance after recovery.
	before := make(map[string]uint64)
	for _, pr := range f.Pairs {
		before[pr.ID] = pr.Workload.(*DirtyLoop).Seq()
	}
	clock.RunFor(200 * simtime.Millisecond)
	for _, pr := range f.Pairs {
		if got := pr.Workload.(*DirtyLoop).Seq(); got <= before[pr.ID] {
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
			pr.Workload.(*DirtyLoop).Seq())
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
