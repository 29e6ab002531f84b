//go:build race

package simdisk

func init() { raceEnabled = true }
