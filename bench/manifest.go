package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nilicon/internal/core"
	"nilicon/internal/simkernel"
	"nilicon/internal/workloads"
)

// manifest identifies what produced a result: the code, the inputs, the
// machine, and the cost model every virtual-time number depends on. A
// virtual-time change caused by recalibration shows up as a new
// CostModel hash, not as a gain.
type manifest struct {
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CostModel  string `json:"cost_model"`
}

func newManifest(seed int64, seconds int) manifest {
	return manifest{
		GitRev:     gitRev("."),
		Seed:       seed,
		Seconds:    seconds,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CostModel:  costModelHash(),
	}
}

// costModelHash hashes every calibrated input the virtual numbers
// depend on: the replication defaults, the lease, the kernel cost model
// and each workload profile the benchmark runs.
func costModelHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "config %+v\n", core.DefaultConfig())
	fmt.Fprintf(h, "replay %+v\n", core.ReplayOpts())
	fmt.Fprintf(h, "lease %+v\n", core.DefaultLease())
	fmt.Fprintf(h, "costs %+v\n", *simkernel.DefaultCosts())
	for _, p := range []workloads.Profile{
		workloads.Redis().Profile(),
		workloads.SSDB().Profile(),
		kvProfile(kvPages, kvRecords),
		kvProfile(fleetPages, fleetRecords),
	} {
		fmt.Fprintf(h, "profile %+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gitRev reads the checked-out commit from root/.git without running
// git; a checkout that is not a repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rev, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}
