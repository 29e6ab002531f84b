package cluster

import (
	"fmt"
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// TestPlaceChainsZoneAntiAffinity: every chain's hosts are distinct and
// land in distinct zones when zones >= replicas.
func TestPlaceChainsZoneAntiAffinity(t *testing.T) {
	pls, err := PlaceChains(6, 6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range pls {
		hosts := append([]int{pl.Primary}, pl.Backups...)
		if len(hosts) != 3 {
			t.Fatalf("chain %d has %d hosts, want 3", pl.Pair, len(hosts))
		}
		seenHost := make(map[int]bool)
		seenZone := make(map[int]bool)
		for _, h := range hosts {
			if seenHost[h] {
				t.Fatalf("chain %d places two replicas on host %d", pl.Pair, h)
			}
			seenHost[h] = true
			if z := h % 3; seenZone[z] {
				t.Fatalf("chain %d places two replicas in zone %d (hosts %v)", pl.Pair, z, hosts)
			} else {
				seenZone[z] = true
			}
		}
	}
}

// TestPlaceChainsPairIsRingNext: with one zone and two replicas the
// chain engine places pair p on worker p mod workers with its backup on
// the next worker in the ring, for any ring size.
func TestPlaceChainsPairIsRingNext(t *testing.T) {
	for _, workers := range []int{2, 3, 5} {
		pls, err := PlaceChains(2*workers, workers, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for p, pl := range pls {
			if pl.Primary != p%workers || len(pl.Backups) != 1 || pl.Backups[0] != (p+1)%workers {
				t.Fatalf("workers=%d placement %d = %+v, want primary %d backups [%d]",
					workers, p, pl, p%workers, (p+1)%workers)
			}
		}
	}
}

// TestPlaceChainsCapacity: 3-replica chains on 3 workers put 256 pages
// of every chain on every host, so 16 chains fill hostPages exactly
// (with 6 of hostCores used) and a 17th does not fit.
func TestPlaceChainsCapacity(t *testing.T) {
	if _, err := PlaceChains(1, 2, 1, 3); err == nil {
		t.Fatal("3-replica chain on 2 workers accepted (distinct hosts impossible)")
	}
	if _, err := PlaceChains(16, 3, 1, 3); err != nil {
		t.Fatalf("16 chains that fill the hosts' pages rejected: %v", err)
	}
	if _, err := PlaceChains(17, 3, 1, 3); err == nil || !strings.Contains(err.Error(), "pages") {
		t.Fatalf("17 chains over 3 hosts' pages: err = %v, want out of pages", err)
	}
}

func chainParams(seed int64) Params {
	return Params{Workers: 6, Spares: 1, Pairs: 4, Seed: seed, Replicas: 3, Zones: 3}
}

// TestFleetChainSteadyState: a 3-replica fleet reaches full strength —
// every pair Protected, both chain replicas acking, ack lags
// bounded, and the summary reporting the chain columns.
func TestFleetChainSteadyState(t *testing.T) {
	clock, f := newTestFleet(t, chainParams(11))
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	for _, pr := range f.Pairs {
		if pr.State != Protected {
			t.Fatalf("pair %s state = %v after warmup", pr.ID, pr.State)
		}
		if got := f.liveBackups(pr); got != 2 {
			t.Fatalf("pair %s live backups = %d, want 2", pr.ID, got)
		}
		for i := 0; i < pr.Repl.Replicas(); i++ {
			acked, ok := pr.Repl.ReplicaAcked(i)
			if !ok || acked < 10 {
				t.Fatalf("pair %s replica %d acked = %d/%v, want >= 10", pr.ID, i, acked, ok)
			}
			if lag := pr.Repl.ReplicaAckLag(i); lag > 3 {
				t.Fatalf("pair %s replica %d ack lag = %d", pr.ID, i, lag)
			}
		}
		// Replica hosts really span three zones.
		zones := map[int]bool{f.Hosts[pr.PrimaryHost].Zone: true}
		for _, rh := range pr.ReplicaHosts {
			zones[f.Hosts[rh].Zone] = true
		}
		if len(zones) != 3 {
			t.Fatalf("pair %s spans %d zones, want 3", pr.ID, len(zones))
		}
	}
}

// TestFleetChainZoneKill: killing an entire failure domain never loses a
// pair — primaries in the zone fail over to a surviving replica, chains
// that lost a replica stay Protected on the survivors, and repair grows
// every chain back to full strength.
func TestFleetChainZoneKill(t *testing.T) {
	clock, f := newTestFleet(t, chainParams(12))
	var events []string
	f.Eventf = func(format string, args ...any) {
		events = append(events, fmt.Sprintf("t=%d ", int64(clock.Now()))+fmt.Sprintf(format, args...))
	}
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	f.KillZone(0) // hosts 0, 3, 6 (the spare)
	clock.RunFor(6 * simtime.Second)

	for _, h := range f.Hosts {
		if h.Zone == 0 && h.Alive && h.Index < f.Params.Workers {
			t.Fatalf("detector never declared zone-0 worker %s dead", h.Name)
		}
		if h.Zone != 0 && !h.Alive {
			t.Fatalf("innocent host %s convicted (events:\n%s)", h.Name, strings.Join(events, "\n"))
		}
	}
	for _, pr := range f.Pairs {
		if pr.State == Lost {
			t.Fatalf("pair %s lost to a single-zone failure (events:\n%s)",
				pr.ID, strings.Join(events, "\n"))
		}
		if pr.State != Protected {
			t.Fatalf("pair %s state = %v after repair window (events:\n%s)",
				pr.ID, pr.State, strings.Join(events, "\n"))
		}
		if f.Hosts[pr.PrimaryHost].Zone == 0 {
			t.Fatalf("pair %s primary still in the dead zone", pr.ID)
		}
		if got := f.liveBackups(pr); got != 2 {
			t.Fatalf("pair %s live backups = %d after repair, want 2", pr.ID, got)
		}
	}

	// Workloads kept running through it.
	before := make(map[string]uint64)
	for _, pr := range f.Pairs {
		before[pr.ID] = pr.Workload.(*dirtyLoop).seq
	}
	clock.RunFor(200 * simtime.Millisecond)
	for _, pr := range f.Pairs {
		if got := pr.Workload.(*dirtyLoop).seq; got <= before[pr.ID] {
			t.Fatalf("pair %s workload stalled (%d -> %d)", pr.ID, before[pr.ID], got)
		}
	}
}

// TestFleetChainTwoSimultaneousFailures is the fleet-level f=2 claim: a
// 3-replica chain survives its primary host and one replica host dying
// in the same instant — the election skips the dead replica and promotes
// the survivor, which holds every epoch whose output was released
// before the kill (strict chain-tail gating released nothing the
// survivor had not committed).
func TestFleetChainTwoSimultaneousFailures(t *testing.T) {
	clock, f := newTestFleet(t, Params{Workers: 6, Spares: 0, Pairs: 6, Seed: 13, Replicas: 3, Zones: 3})
	var events []string
	f.Eventf = func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	}
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	// Chain p00: primary host0, replicas on hosts 1 and 2. Kill the
	// primary and the slot-0 replica together.
	p0 := f.Pairs[0]
	if p0.PrimaryHost != 0 || p0.ReplicaHosts[0] != 1 || p0.ReplicaHosts[1] != 2 {
		t.Fatalf("unexpected p00 placement: pri=%d replicas=%v", p0.PrimaryHost, p0.ReplicaHosts)
	}
	released, ok := p0.Repl.ReleasedEpoch()
	if !ok || released < 10 {
		t.Fatalf("p00 released through epoch %d/%v before the kill, want >= 10", released, ok)
	}
	f.KillHost(0)
	f.KillHost(1)
	clock.RunFor(6 * simtime.Second)

	if p0.State == Lost {
		t.Fatalf("p00 lost to f=2 with a 3-replica chain (events:\n%s)", strings.Join(events, "\n"))
	}
	if p0.Failovers != 1 {
		t.Fatalf("p00 failovers = %d, want 1", p0.Failovers)
	}
	if f.Hosts[p0.PrimaryHost].Zone != 2 {
		t.Fatalf("p00 promoted onto host %d (zone %d), want the zone-2 survivor",
			p0.PrimaryHost, f.Hosts[p0.PrimaryHost].Zone)
	}
	t.Logf("released through epoch %d before the kill; survivor restored epoch %d", released, p0.LastFailover.CommittedEpoch)
	if got := p0.LastFailover.CommittedEpoch; got < released {
		t.Fatalf("survivor restored epoch %d, but output through epoch %d was released before the kill", got, released)
	}
	for _, pr := range f.Pairs {
		if pr.State == Lost {
			t.Fatalf("pair %s lost (events:\n%s)", pr.ID, strings.Join(events, "\n"))
		}
	}
}

// TestDetectorThreeSimultaneousKillsNoInnocentConviction is the
// regression for the suspect-filtered sweep at higher failure counts:
// three hosts dying in the same instant silence many observers at once,
// and the second round must still refuse to convict any host whose only
// stale evidence came from the corpses.
func TestDetectorThreeSimultaneousKillsNoInnocentConviction(t *testing.T) {
	clock, f := newTestFleet(t, Params{Workers: 8, Spares: 0, Pairs: 8, Seed: 14})
	f.Start()
	clock.RunFor(900 * simtime.Millisecond)

	killed := map[int]bool{0: true, 2: true, 5: true}
	for i := range killed {
		f.KillHost(i)
	}
	clock.RunFor(4 * simtime.Second)

	for _, h := range f.Hosts {
		if killed[h.Index] && h.Alive {
			t.Fatalf("killed host %s never declared dead", h.Name)
		}
		if !killed[h.Index] && !h.Alive {
			t.Fatalf("innocent host %s convicted by the sweep", h.Name)
		}
	}
}

// TestFleetChainPartitionedPrimary is chain split-brain safety under the
// control plane. The primary host of a width-3 chain loses its
// replication NIC while its container stays on the LAN: clients still
// reach it, both replicas stop hearing it, and the fleet detector
// convicts the host and promotes one replica. With the lease the
// primary fences before the elected replica's barrier (raised to every
// grant the chain sent) passes, so at most one side serves at every
// 1 ms sample and exactly one failover happens. Without the lease the
// same geometry dual-serves: the partitioned primary keeps releasing
// output while the promoted replica serves.
func TestFleetChainPartitionedPrimary(t *testing.T) {
	for _, lease := range []bool{true, false} {
		t.Run(fmt.Sprintf("lease=%v", lease), func(t *testing.T) {
			p := Params{Workers: 3, Spares: 1, Pairs: 1, Seed: 15, Replicas: 3, Zones: 3}
			if lease {
				p.Lease = core.DefaultLease()
			}
			clock, f := newTestFleet(t, p)
			f.Start()
			clock.RunFor(900 * simtime.Millisecond)

			pr := f.Pairs[0]
			r := pr.Repl
			maxServing, dual := 0, 0
			sampler := simtime.NewTicker(clock, simtime.Millisecond, func() {
				n := 0
				if r.Serving() {
					n++
				}
				for i := 0; i < r.Replicas(); i++ {
					if r.ReplicaAgent(i).Serving() {
						n++
					}
				}
				maxServing = max(maxServing, n)
				if n > 1 {
					dual++
				}
			})
			defer sampler.Stop()

			f.Hosts[pr.PrimaryHost].NIC.SetDown(true)
			clock.RunFor(1500 * simtime.Millisecond)

			t.Logf("failovers=%d max serving=%d dual-serving samples=%d", pr.Failovers, maxServing, dual)
			if pr.Failovers != 1 {
				t.Fatalf("failovers = %d, want 1", pr.Failovers)
			}
			if !lease {
				if dual == 0 {
					t.Fatal("no dual-serving sample without the lease; has the partitioned primary stopped serving some other way?")
				}
				return
			}
			if maxServing > 1 {
				t.Fatalf("%d sides served at once (%d dual-serving samples)", maxServing, dual)
			}
			if r.Serving() {
				t.Fatal("the partitioned primary still serves after the failover")
			}
		})
	}
}
