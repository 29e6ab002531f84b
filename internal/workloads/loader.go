package workloads

import (
	"nilicon/internal/core"
	"nilicon/internal/simnet"
)

// Loader bulk-uploads records to a KV server (the §VII-B Redis
// experiment preloads ≈100 MB before measuring recovery latency). It
// keeps a fixed window of SETs in flight until every record is stored
// and acknowledged.
type Loader struct {
	records int
	next    int
	acked   int
	window  int
	sock    *simnet.Socket
	fr      FrameReader
}

// NewLoader starts loading `records` sequential keys.
func NewLoader(cl *core.Cluster, prof Profile, serverIP simnet.Addr, records int) *Loader {
	l := &Loader{records: records, window: 200}
	st := cl.NewClient("10.2.0.1")
	st.Connect(serverIP, prof.Port, func(s *simnet.Socket) {
		l.sock = s
		s.OnData = l.onData
		l.fill()
	})
	return l
}

func (l *Loader) fill() {
	for l.next < l.records && l.next-l.acked < l.window {
		payload := append(KeyBytes(uint64(l.next)), ValueFor(uint64(l.next), 1, recordSize)...)
		l.sock.Send(Frame(OpSet, payload))
		l.next++
	}
}

func (l *Loader) onData(s *simnet.Socket) {
	l.fr.Feed(s.ReadAll())
	for {
		_, _, ok := l.fr.Next()
		if !ok {
			break
		}
		l.acked++
	}
	l.fill()
}

// Done reports whether every record was acknowledged.
func (l *Loader) Done() bool { return l.acked >= l.records }
