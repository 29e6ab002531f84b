package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nilicon/internal/simtime"
	"nilicon/internal/trace"
)

// span is one call the benchmark made into a layer. Wall times are
// nanoseconds since the run started; virtual times are the driven
// world's clock (0 for calls made while the world is being built).
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 for a root span
	Name      string `json:"name"`
	World     int    `json:"world"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
	// SelfNs is the wall duration minus the part its children cover.
	SelfNs int64 `json:"self_ns"`
}

type worldTimeline struct {
	world int
	tl    *trace.Timeline
}

// tracer keeps the traced run's spans and per-world epoch timelines in
// memory; write puts them on disk when the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0        time.Time
	spans     []span
	open      []int // indices of the open spans, innermost last
	timelines []worldTimeline
}

func (t *tracer) do(name string, world int, sc *simtime.ShardedClock, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := span{ID: len(t.spans) + 1, Name: name, World: world, WallStart: time.Since(t.t0).Nanoseconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	if sc != nil {
		s.VirtStart = int64(sc.Now())
	}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	fn()
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[idx]
	sp.WallEnd = time.Since(t.t0).Nanoseconds()
	if sc != nil {
		sp.VirtEnd = int64(sc.Now())
	}
}

// keep registers a world's timeline to be written with the spans.
func (t *tracer) keep(world int, tl *trace.Timeline) {
	if t != nil && tl != nil {
		t.timelines = append(t.timelines, worldTimeline{world, tl})
	}
}

// selfTimes fills each span's self time: its duration minus the union
// of its children's intervals (children never overlap: the benchmark
// makes one call at a time).
func selfTimes(spans []span) {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
		spans[i].SelfNs = spans[i].WallEnd - spans[i].WallStart
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			spans[p].SelfNs -= s.WallEnd - s.WallStart
		}
	}
}

// write stores spans.jsonl and one timeline CSV per world under dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	selfTimes(t.spans)
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, wt := range t.timelines {
		if err := writeTimeline(filepath.Join(dir, fmt.Sprintf("timeline-w%d.csv", wt.world)), wt.tl); err != nil {
			return err
		}
	}
	return nil
}

func writeTimeline(path string, tl *trace.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tl.WriteCSV(w); err != nil {
		f.Close()
		return fmt.Errorf("write timeline: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write timeline: %w", err)
	}
	return f.Close()
}
