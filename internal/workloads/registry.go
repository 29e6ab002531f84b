package workloads

import (
	"fmt"
	"strings"

	"nilicon/internal/core"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// The seven paper benchmarks (§VI), with footprints calibrated so the
// mechanistically-modeled stop times and dirty-page counts land near
// Tables III/IV, and the residual knobs (ExtraStop*, *Tax) close the gap
// to unmodeled in-kernel state. Memory footprints of the two largest
// benchmarks are scaled ~2× down from the native inputs to keep host
// memory use reasonable; dirty-page *rates* (what the tables report) are
// unaffected. EXPERIMENTS.md records paper-vs-measured per cell.
//
// Calibration provenance, per knob:
//   - Procs/ThreadsPer/Clients: stated in §VI/§VII-C.
//   - ReqCPU: fitted to Table VI stock latencies and Figure 3 saturation
//     throughputs (Redis/SSDB ×10 for event-count economy — ratios are
//     what the experiments report).
//   - ReqDirty/MemPages: fitted to Table III dirty pages and Table IV
//     state sizes at the measured request rates.
//   - KernelDirtyPages: Table III's MC DPage minus the user-space rate.
//   - ExtraStop/ExtraStopPerProc: Table III stop time minus the
//     mechanistic components (per-process share from §VII-C's 6.5 ms →
//     28.7 ms process-state scaling).
//   - RuntimeTax/MCExtraTax: Figure 3 residual runtime overheads beyond
//     per-page tracking costs (virtio/EPT effects for MC).

// Redis returns the Redis benchmark: in-memory KV, no persistence,
// driven by one client with pipelined 1000-request batches (50/50 r/w).
func Redis() *Server {
	return NewServer(Profile{
		Name: "redis", Procs: 1, ThreadsPer: 1, LibsPerProc: 6,
		MemPages: 26000, Port: 6379,
		ReqCPU: 30 * simtime.Microsecond, ReqDirty: 13,
		Records: 20000, PipelineDepth: 3, Clients: 1,
		KernelDirtyPages: 3400,
		ExtraStop:        10500 * simtime.Microsecond,
		MCExtraTax:       13 * simtime.Millisecond,
	})
}

// SSDB returns the SSDB benchmark: KV with full persistence (every
// write is synchronously written through the file system to the
// replicated disk).
func SSDB() *Server {
	return NewServer(Profile{
		Name: "ssdb", Procs: 1, ThreadsPer: 2, LibsPerProc: 6,
		MemPages: 9000, Port: 8888,
		ReqCPU: 150 * simtime.Microsecond, ReqDirty: 9,
		FSBytesPerWrite: recordSize, SyncFS: true,
		DiskWriteLat: 240 * simtime.Microsecond,
		Records:      20000, PipelineDepth: 3, Clients: 1,
		KernelDirtyPages: 517,
		ExtraStop:        5200 * simtime.Microsecond,
		ExtraStopPerProc: 0,
		MCExtraTax:       20 * simtime.Millisecond,
	})
}

// Node returns the Node benchmark: a single-threaded JS-style server
// that searches a database and responds with a generated page; 128
// clients are needed to saturate it (§VII-C).
func Node() *Server {
	return NewServer(Profile{
		Name: "node", Procs: 1, ThreadsPer: 1, LibsPerProc: 8,
		MemPages: 30000, Port: 8080,
		ReqCPU: 500 * simtime.Microsecond, ReqDirty: 100, RespKB: 16,
		Clients:          128,
		KernelDirtyPages: 1400,
		ExtraStop:        16 * simtime.Millisecond,
		MCExtraTax:       2100 * simtime.Microsecond,
	})
}

// Lighttpd returns the Lighttpd benchmark: four server processes running
// a PHP watermarking script per request.
func Lighttpd() *Server {
	return NewServer(Profile{
		Name: "lighttpd", Procs: 4, ThreadsPer: 1, LibsPerProc: 5,
		MemPages: 4000, Port: 80,
		// The PHP watermarking request is heavy: ≈140 ms of CPU over
		// ≈7 MB of image buffers (Table VI's single-client latency and
		// Table IV's per-epoch state sizes both demand this weight).
		ReqCPU: 140 * simtime.Millisecond, ReqDirty: 1800, RespKB: 64,
		Clients:          32,
		KernelDirtyPages: 1300,
		ExtraStop:        2 * simtime.Millisecond,
		ExtraStopPerProc: 3200 * simtime.Microsecond,
		MCExtraTax:       4 * simtime.Millisecond,
	})
}

// DJCMS returns the DJCMS benchmark: a content-management stack (nginx +
// Python application server + MySQL); the application process does the
// heavy lifting while the proxy and database processes run lighter
// duty cycles, and each dashboard request writes session state.
func DJCMS() *Server {
	return NewServer(Profile{
		Name: "djcms", Procs: 3, ThreadsPer: 1, LibsPerProc: 8,
		MemPages: 16000, Port: 8000,
		// One admin-dashboard request runs ≈89 ms through the Python
		// app server (Table VI) and churns ≈35 MB of Python/MySQL state
		// (Table III/IV dirty-page rates).
		ReqCPU: 89 * simtime.Millisecond, ReqDirty: 12000, RespKB: 48,
		FSBytesPerWrite: 512, DiskWriteLat: 300 * simtime.Microsecond,
		Clients:     16,
		WorkerProcs: 1, BackgroundCPUFrac: 0.2,
		KernelDirtyPages: 450,
		ExtraStop:        700 * simtime.Microsecond,
		ExtraStopPerProc: 3200 * simtime.Microsecond,
		RuntimeTax:       6500 * simtime.Microsecond,
		MCExtraTax:       4700 * simtime.Microsecond,
	})
}

// Streamcluster returns the PARSEC streamcluster kernel: 4 worker
// threads over a large array (native input scaled 2× down).
func Streamcluster() *Parsec {
	return NewParsec(Profile{
		Name: "streamcluster", Procs: 1, ThreadsPer: 4, LibsPerProc: 4,
		MemPages:  50000,
		WorkUnits: 4800, UnitCPU: 2500 * simtime.Microsecond, UnitDirty: 6,
		KernelDirtyPages: 159,
		ExtraStop:        1 * simtime.Millisecond,
		MCExtraTax:       5 * simtime.Millisecond,
	})
}

// Swaptions returns the PARSEC swaptions kernel: 4 Monte-Carlo pricing
// threads with a small working set.
func Swaptions() *Parsec {
	return NewParsec(Profile{
		Name: "swaptions", Procs: 1, ThreadsPer: 4, LibsPerProc: 4,
		MemPages:  5000,
		WorkUnits: 4800, UnitCPU: 2500 * simtime.Microsecond, UnitDirty: 1,
		KernelDirtyPages: 166,
		ExtraStop:        400 * simtime.Microsecond,
		MCExtraTax:       1 * simtime.Millisecond,
	})
}

// NetEcho returns the Net microbenchmark of §VII-B: the client sends 10
// bytes, the server echoes them.
func NetEcho() *Server {
	return NewServer(Profile{
		Name: "net", Procs: 1, ThreadsPer: 1, LibsPerProc: 2,
		MemPages: 512, Port: 7,
		ReqCPU:       10 * simtime.Microsecond,
		EchoMaxBytes: 10,
	})
}

// NetStress returns the §VII-A network-stack validation microbenchmark:
// random-size echo messages parked on the server's stack.
func NetStress() *Server {
	return NewServer(Profile{
		Name: "netstress", Procs: 1, ThreadsPer: 1, LibsPerProc: 2,
		MemPages: 256, Port: 7001,
		ReqCPU: 20 * simtime.Microsecond,
	})
}

// BenchmarkNames lists the seven Figure 3 benchmarks in paper order.
func BenchmarkNames() []string {
	return []string{"swaptions", "streamcluster", "redis", "ssdb", "node", "lighttpd", "djcms"}
}

// AllNames lists every name ByName accepts: the seven paper benchmarks
// plus the §VII validation microbenchmarks.
func AllNames() []string {
	return append(BenchmarkNames(), "net", "netstress", "diskstress")
}

// ByName constructs a benchmark workload by its paper name.
func ByName(name string) (Workload, error) {
	switch name {
	case "swaptions":
		return Swaptions(), nil
	case "streamcluster":
		return Streamcluster(), nil
	case "redis":
		return Redis(), nil
	case "ssdb":
		return SSDB(), nil
	case "node":
		return Node(), nil
	case "lighttpd":
		return Lighttpd(), nil
	case "djcms":
		return DJCMS(), nil
	case "net":
		return NetEcho(), nil
	case "netstress":
		return NetStress(), nil
	case "diskstress":
		return NewDiskStress(1), nil
	default:
		return nil, fmt.Errorf("workloads: unknown benchmark %q (valid: %s)", name, strings.Join(AllNames(), ", "))
	}
}

// ClientKindFor returns the driving pattern for a server benchmark.
func ClientKindFor(name string) ClientKind {
	switch name {
	case "redis", "ssdb":
		return KVBatch
	case "net", "netstress":
		return EchoLoop
	default:
		return WebLoop
	}
}

// NewClients implements ServerWorkload: it starts the profile's
// saturating client population (or n, if non-zero).
func (sv *Server) NewClients(cl *core.Cluster, serverIP string, n int, seed int64) *ClientSet {
	if n <= 0 {
		n = sv.prof.Clients
	}
	if n <= 0 {
		n = 1
	}
	return NewClientSet(cl, sv.prof, simnet.Addr(serverIP), ClientKindFor(sv.prof.Name), n, seed)
}
