package nilicon_test

import (
	"reflect"
	"strings"
	"testing"

	"nilicon/internal/chaos"
	"nilicon/internal/cluster"
	"nilicon/internal/core"
	"nilicon/internal/criu"
)

// configSurface is every settable field of the configuration types, as
// "Name Type". A field added to or removed from one of these types must
// be added to or removed from this list in the same change, so every
// new knob shows up as a reviewed diff. The paper's fixed parameters
// (detection deadline, lease timeline, link model, epoch of the MC
// baseline) are constants, not fields.
var configSurface = map[string][]string{
	"core.Config": {
		"EpochInterval time.Duration",
		"Opts core.OptSet",
		"Lease core.LeaseConfig",
		"Degrade core.DegradePolicy",
		"ExtraStopPerCheckpoint time.Duration",
		"RuntimeTaxPerEpoch time.Duration",
		"Reattach func(*container.Container, interface {})",
		"OnRecovered func(*container.Container, core.RecoveryStats)",
	},
	"core.LeaseConfig": {
		"Enabled bool",
	},
	"core.OptSet": {
		"OptimizeCRIU bool",
		"CacheInfrequent bool",
		"PlugInput bool",
		"NetlinkVMA bool",
		"StagingBuffer bool",
		"SharedMemPages bool",
		"RepairRTOPatch bool",
		"PipelinedTransfer bool",
		"DeltaPages bool",
		"RecordReplay bool",
	},
	"core.ClusterParams": {},
	"cluster.Params": {
		"Workers int",
		"Spares int",
		"Pairs int",
		"Seed int64",
		"Opts *core.OptSet",
		"MaxConcurrentResyncs int",
		"Workload cluster.WorkloadFactory",
		"Lease core.LeaseConfig",
		"Degrade core.DegradePolicy",
		"Replicas int",
		"Zones int",
	},
	"criu.Options": {
		"FreezePoll bool",
		"NetlinkVMA bool",
		"SharedMemPages bool",
		"CacheInfrequent bool",
	},
	"chaos.Config": {
		"Seed int64",
		"Opts core.OptSet",
		"OptName string",
		"Duration time.Duration",
		"Fleet *chaos.Fleet",
		"Terminal string",
		"Events int",
		"FaultKinds []string",
		"Scenario string",
		"PreLease bool",
		"Degrade core.DegradePolicy",
		"Traffic *traffic.Trace",
	},
	"chaos.Fleet": {
		"Pairs int",
		"Hosts int",
		"Spares int",
		"Replicas int",
		"Kills int",
		"Zones int",
	},
}

// TestConfigSurface fails when a configuration type gains or loses a
// settable field without configSurface being updated.
func TestConfigSurface(t *testing.T) {
	for _, v := range []any{
		core.Config{}, core.LeaseConfig{}, core.OptSet{}, core.ClusterParams{},
		cluster.Params{}, criu.Options{}, chaos.Config{}, chaos.Fleet{},
	} {
		typ := reflect.TypeOf(v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name+" "+f.Type.String())
			}
		}
		name := typ.String()
		want, ok := configSurface[name]
		if !ok {
			t.Errorf("%s is not listed in configSurface", name)
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s settable fields changed; update configSurface after review.\ngot:\n  %s\nwant:\n  %s",
				name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}
}
