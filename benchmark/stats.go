package main

import (
	"math"
	"sort"
	"time"

	"blinkdb/internal/telemetry"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns v ascending without touching v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// interval is a span's extent on one clock, in seconds.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span, and overlapping or concurrent
// children (per-shard scan workers) count once.
func selfTime(span interval, children []interval) float64 {
	kids := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = math.Max(c.start, span.start), math.Min(c.end, span.end)
		if c.end > c.start {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered, edge := 0.0, span.start
	for _, c := range kids {
		if c.end <= edge {
			continue
		}
		covered += c.end - math.Max(c.start, edge)
		edge = c.end
	}
	return span.end - span.start - covered
}

// spanInterval places a telemetry span on the clock whose zero is origin.
func spanInterval(s *telemetry.Span, origin time.Time) interval {
	start := s.Start().Sub(origin).Seconds()
	return interval{start, start + s.Duration().Seconds()}
}

// spanSelf is selfTime over a live span tree node.
func spanSelf(s *telemetry.Span) float64 {
	origin := s.Start()
	kids := s.Children()
	ivs := make([]interval, len(kids))
	for i, c := range kids {
		ivs[i] = spanInterval(c, origin)
	}
	return selfTime(spanInterval(s, origin), ivs)
}
