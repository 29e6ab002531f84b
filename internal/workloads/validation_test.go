package workloads

import (
	"strings"
	"testing"

	"nilicon/internal/core"
	"nilicon/internal/simtime"
)

// The §VII-A validation passes while every recorder below stays empty;
// these tests show each one fires on the failure it names.

// TestClientRecordsBadReplies: a client records a reply with the wrong
// content, a reply of the wrong op and a reply with nothing in flight,
// and records nothing for a correct reply.
func TestClientRecordsBadReplies(t *testing.T) {
	cl := core.NewShardedCluster(simtime.NewClock(), core.ClusterParams{})
	set := &ClientSet{cl: cl, prof: Redis().Profile()}
	c := &Client{set: set, kind: KVBatch, versions: map[uint64]uint32{}}
	set.Clients = append(set.Clients, c)

	for _, tc := range []struct {
		name     string
		inflight []outstanding
		op       byte
		payload  string
		want     string
	}{
		{"correct", []outstanding{{op: OpSet}}, OpSet, "OK", ""},
		{"wrong content", []outstanding{{op: OpGet, key: 5, version: 2, size: 64}}, OpGet, "stale", "wrong content"},
		{"wrong op", []outstanding{{op: OpSet}}, OpGet, "OK", "response op 'G' for request 'S'"},
		{"nothing in flight", nil, OpSet, "OK", "unexpected response op"},
	} {
		set.Errors = nil
		for _, o := range tc.inflight {
			c.inflight.Push(o)
		}
		c.receive(AppendFrame(nil, tc.op, []byte(tc.payload)))
		if c.inflight.Len() != 0 {
			t.Fatalf("%s: %d requests still in flight", tc.name, c.inflight.Len())
		}
		switch errs := set.ValidationErrors(); {
		case tc.want == "" && len(errs) != 0:
			t.Fatalf("%s: recorded %v", tc.name, errs)
		case tc.want != "" && (len(errs) != 1 || !strings.Contains(errs[0], tc.want)):
			t.Fatalf("%s: recorded %v, want one error containing %q", tc.name, errs, tc.want)
		}
	}
}

// TestParsecRecordsFailedRestore: a restore onto a container with no
// process, or with a process but no heap, is returned and recorded.
func TestParsecRecordsFailedRestore(t *testing.T) {
	pw := Swaptions()
	env := newWLEnv(t, pw)
	env.clock.RunFor(10 * simtime.Millisecond)
	state := pw.SnapshotState()

	for i, tc := range []struct {
		procs int
		want  string
	}{{0, "has no process"}, {1, "heap not found"}} {
		ctr := env.cl.NewProtectedContainer("restored", "10.0.0.11", 4)
		for j := 0; j < tc.procs; j++ {
			ctr.AddProcess("empty", 1)
		}
		re := Swaptions()
		err := re.Reattach(ctr, state)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: Reattach = %v, want %q", i, err, tc.want)
		}
		if errs := re.Errors(); len(errs) != 1 || !strings.Contains(errs[0], tc.want) {
			t.Fatalf("case %d: recorded %v, want one error containing %q", i, errs, tc.want)
		}
	}
}

// TestDiskStressRecordsFailedReattach: a reattach onto a container
// without the working file, or with the file but no process, is
// returned and recorded.
func TestDiskStressRecordsFailedReattach(t *testing.T) {
	d := NewDiskStress(11)
	env := newWLEnv(t, d)
	env.clock.RunFor(10 * simtime.Millisecond)
	state := d.SnapshotState()

	for i, tc := range []struct {
		file bool
		want string
	}{{false, "file missing"}, {true, "has no process"}} {
		ctr := env.cl.NewProtectedContainer("restored", "10.0.0.11", 4)
		if tc.file {
			ctr.FS.Create("/data/stress")
		}
		re := NewDiskStress(11)
		err := re.Reattach(ctr, state)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: Reattach = %v, want %q", i, err, tc.want)
		}
		if errs := re.Errors(); len(errs) != 1 || !strings.Contains(errs[0], tc.want) {
			t.Fatalf("case %d: recorded %v, want one error containing %q", i, errs, tc.want)
		}
	}
}
