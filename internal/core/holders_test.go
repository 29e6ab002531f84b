package core

import (
	"encoding/binary"
	"testing"

	"nilicon/internal/criu"
	"nilicon/internal/simkernel"
	"nilicon/internal/simtime"
)

// chainPagesRun runs a width-3 chain whose container rewrites every
// page of a 64-page region each round with (round, page) stamped into
// it. It quiesces replication and drains the pipeline while the writer
// keeps going, then draws every buffer the page pool holds and
// scribbles over it. Every replica's store must still hold the pages
// exactly as one past round left them, all replicas the same round:
// a buffer a store holds must never be in the pool. It returns the
// number of pages for which that fails, and the number of pages whose
// buffer a replica's store shares with the lead's.
func chainPagesRun(t *testing.T, recycleAtFirst bool) (wrong, shared int) {
	t.Helper()
	const pages = 64
	env := newChainEnv(t, 3, DefaultConfig(), 0)
	env.repl.recycleAtFirstRelease = recycleAtFirst
	p := env.app.proc
	v := p.Mem.Mmap(pages*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", env.ctr.ID)
	round := uint64(0)
	content := make([]byte, 16)
	env.ctr.AddTask(p.NewThread(), func() (simtime.Duration, simtime.Duration) {
		round++
		for i := 0; i < pages; i++ {
			binary.LittleEndian.PutUint64(content, round)
			binary.LittleEndian.PutUint64(content[8:], uint64(i))
			if err := p.Mem.Write(v.Start+uint64(i)*simkernel.PageSize, content); err != nil {
				t.Error(err)
			}
		}
		return 50 * simtime.Microsecond, 10 * simtime.Millisecond
	})
	env.repl.Start()
	env.clock.RunFor(simtime.Second)
	env.repl.Quiesce()
	env.clock.RunFor(500 * simtime.Millisecond)
	if env.repl.InflightEpochs() != 0 {
		t.Fatalf("%d epochs still in flight after the drain", env.repl.InflightEpochs())
	}
	junk := make([]byte, simkernel.PageSize)
	for i := range junk {
		junk[i] = 0xff
	}
	for i := 0; i < 4096; i++ { // the pool holds at most 4096 buffers
		simkernel.CopyPage(junk)
	}

	procIdx := -1
	for i, q := range env.ctr.Procs {
		if q == p {
			procIdx = i
		}
	}
	var committed uint64 // the round the stores hold
	for i := 0; i < pages; i++ {
		pn := v.Start/simkernel.PageSize + uint64(i)
		bad := false
		var lead []byte
		for r := 0; r < env.repl.Replicas(); r++ {
			got := env.repl.ReplicaAgent(r).store.Get(criu.PageKey(procIdx, pn))
			if len(got) < 16 || binary.LittleEndian.Uint64(got[8:]) != uint64(i) {
				bad = true
				continue
			}
			rd := binary.LittleEndian.Uint64(got)
			if committed == 0 {
				committed = rd
			}
			bad = bad || rd != committed || rd >= round
			if r == 0 {
				lead = got
			} else if sameBuffer(lead, got) {
				shared++
			}
		}
		if bad {
			wrong++
		}
	}
	return wrong, shared
}

// TestChainReplicasShareCountedPages checks the chain fan-out's page
// sharing (DESIGN.md §8): every replica's store holds the lead's page
// buffers, and each replica's bytes stay those it committed, because a
// superseded buffer returns to the pool only when its last store lets
// go. The shipped mutation — recycling at a store's first release —
// hands one buffer to the pool once per replica, so later copies share
// it and overwrite pages the other stores (and the container) still hold.
func TestChainReplicasShareCountedPages(t *testing.T) {
	wrong, shared := chainPagesRun(t, false)
	if wrong != 0 {
		t.Fatalf("%d of 64 pages differ between the replicas' stores or from the round they committed", wrong)
	}
	if shared == 0 {
		t.Fatal("no replica store shares a page buffer with the lead's: the fan-out copies pages")
	}
	caught := func() (caught bool) {
		// A buffer handed out twice may also land in one store under two
		// epochs, which commit's duplicate-buffer check refuses.
		defer func() { caught = caught || recover() != nil }()
		wrong, _ := chainPagesRun(t, true)
		return wrong > 0
	}()
	if !caught {
		t.Fatal("recycling at the first release left every page intact: the test cannot see an uncounted holder")
	}
}
