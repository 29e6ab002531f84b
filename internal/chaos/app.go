package chaos

import (
	"strings"

	"nilicon/internal/container"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// kvApp is the campaign workload: a newline-framed "SET k v" / "GET k"
// server on port 6379, processing requests in the data callback. Every
// SET draws from getrandom to pick the page it dirties, so checkpoints
// carry real dirty pages and replay-mode campaigns exercise genuine
// sim-syscall nondeterminism.
type kvApp struct {
	data     map[string]string
	proc     *simkernel.Process
	vma      *simkernel.VMA
	vmaStart uint64
}

// kvState is the checkpointed user-space state. VMAStart lets attach
// rebind the touch target inside a restored container's address space.
type kvState struct {
	Data     map[string]string
	VMAStart uint64
}

func newKVApp(ctr *container.Container) *kvApp {
	a := &kvApp{data: make(map[string]string)}
	proc := ctr.AddProcess("kvserver", 3)
	a.proc = proc
	a.vma = proc.Mem.Mmap(64*simkernel.PageSize, simkernel.ProtRead|simkernel.ProtWrite, "", proc.PID, ctr.ID)
	a.vmaStart = a.vma.Start
	_ = proc.Mem.Touch(a.vma, 0, 64, 1)
	a.attach(ctr)
	return a
}

func (a *kvApp) SnapshotState() any {
	cp := make(map[string]string, len(a.data))
	for k, v := range a.data {
		cp[k] = v
	}
	return kvState{Data: cp, VMAStart: a.vmaStart}
}

func (a *kvApp) RestoreState(s any) {
	src := s.(kvState)
	a.data = make(map[string]string, len(src.Data))
	for k, v := range src.Data {
		a.data[k] = v
	}
	a.vmaStart = src.VMAStart
}

func (a *kvApp) handle(s *simnet.Socket) {
	for {
		buf := string(s.Peek())
		nl := strings.IndexByte(buf, '\n')
		if nl < 0 {
			return
		}
		line := strings.TrimSpace(string(s.ReadN(nl + 1)))
		parts := strings.SplitN(line, " ", 3)
		switch parts[0] {
		case "SET":
			a.data[parts[1]] = parts[2]
			n := a.proc.GetRandom()
			_ = a.proc.Mem.Touch(a.vma, int(n%64), 2, byte(n))
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

// attach installs the app on a container (fresh or restored). A
// restored container rebuilt its process table and address spaces, so
// rebind the process and touch-target VMA before serving traffic —
// otherwise replayed GetRandom draws would consume entropy from the
// dead container's process instead of the injected log values.
func (a *kvApp) attach(ctr *container.Container) {
	ctr.App = a
	for _, p := range ctr.Procs {
		if p.Name == "kvserver" {
			a.proc = p
			if v := p.Mem.FindVMA(a.vmaStart); v != nil {
				a.vma = v
			}
			break
		}
	}
	ctr.Stack.Listen(6379, func(s *simnet.Socket) { s.OnData = a.handle })
	for _, s := range ctr.Stack.Sockets() {
		s.OnData = a.handle
		if s.Available() > 0 {
			a.handle(s)
		}
	}
}

// kvClient drives the workload over a real simulated TCP connection and
// accumulates newline-framed replies. onReply, when set, observes every
// complete reply at its virtual arrival instant (the latency probe's
// measurement point). A writer client also keeps each SET's send
// instant, sentAt, and how many OKs have matched one, oks.
type kvClient struct {
	sock    *simnet.Socket
	replies []string
	partial string
	onReply func(reply string)
	sentAt  []simtime.Time
	oks     int
}

// newKVClientOn drives the workload over an already-attached client
// stack.
func newKVClient(st *simnet.Stack, serverIP simnet.Addr) *kvClient {
	c := &kvClient{}
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
				if c.onReply != nil {
					c.onReply(c.partial[:nl])
				}
				c.partial = c.partial[nl+1:]
			}
		}
	})
	return c
}

func (c *kvClient) send(line string) { c.sock.Send([]byte(line + "\n")) }

// okReplies counts SET acknowledgments received so far.
func (c *kvClient) okReplies() int {
	n := 0
	for _, r := range c.replies {
		if r == "OK" {
			n++
		}
	}
	return n
}
