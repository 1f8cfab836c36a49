package workload

import (
	"math/rand"

	"subtraj/internal/geo"
	"subtraj/internal/roadnet"
	"subtraj/internal/traj"
)

// This file generates synthetic raw GPS traces from ground-truth vertex
// paths — the input side of the GPS-native pipeline. Each trace is a noisy
// sampling of a network path, so the pair (trace, truth) is both a
// benchmark workload for the matching layer and the labelled data the
// closed-loop accuracy harness scores against (the paper assumes this
// preprocessing already happened; here it is reproduced end to end).

// GPSConfig parameterises trace synthesis. The zero value selects
// defaults matching the synthetic cities (~100 m blocks): σ = 20 m noise,
// one sample every 50 m, no dropouts.
type GPSConfig struct {
	// NoiseSigma is the standard deviation (metres) of the isotropic
	// Gaussian perturbation applied to every emitted sample. Default 20.
	NoiseSigma float64
	// SampleSpacing is the along-path distance (metres) between
	// consecutive GPS samples. Default 50.
	SampleSpacing float64
	// DropoutRate is the per-sample probability that the receiver loses
	// fix and the next DropoutLen samples are dropped (tunnels, urban
	// canyons). Default 0 (disabled).
	DropoutRate float64
	// DropoutLen is the number of consecutive samples lost per dropout.
	// Default 3.
	DropoutLen int
}

func (c GPSConfig) withDefaults() GPSConfig {
	if c.NoiseSigma <= 0 {
		c.NoiseSigma = 20
	}
	if c.SampleSpacing <= 0 {
		c.SampleSpacing = 50
	}
	if c.DropoutLen <= 0 {
		c.DropoutLen = 3
	}
	return c
}

// Trace is one synthetic GPS observation of a ground-truth network path.
type Trace struct {
	// Points are the noisy GPS samples, in travel order.
	Points []geo.Point
	// Truth is the vertex path the trace was sampled from.
	Truth []traj.Symbol
	// Dropouts counts the dropout gaps injected into the trace.
	Dropouts int
}

// GenerateTrace samples one noisy GPS trace along the vertex path on g.
// Sampling walks the path edge by edge, emitting a sample every
// SampleSpacing metres (always including the start and end of the path),
// perturbing each by Gaussian noise, and cutting dropout gaps. The result
// is deterministic in rng.
func GenerateTrace(g *roadnet.Graph, path []traj.Symbol, cfg GPSConfig, rng *rand.Rand) Trace {
	cfg = cfg.withDefaults()
	tr := Trace{Truth: path}
	if len(path) == 0 {
		return tr
	}

	// Ideal (noise-free) sample positions along the polyline.
	ideal := samplePolyline(g, path, cfg.SampleSpacing)

	// Noise + dropouts.
	drop := 0
	for _, p := range ideal {
		if drop > 0 {
			drop--
			continue
		}
		if cfg.DropoutRate > 0 && rng.Float64() < cfg.DropoutRate {
			drop = cfg.DropoutLen
			tr.Dropouts++
			continue
		}
		tr.Points = append(tr.Points, geo.Point{
			X: p.X + rng.NormFloat64()*cfg.NoiseSigma,
			Y: p.Y + rng.NormFloat64()*cfg.NoiseSigma,
		})
	}
	return tr
}

// samplePolyline emits points every spacing metres along the vertex path,
// including both endpoints.
func samplePolyline(g *roadnet.Graph, path []traj.Symbol, spacing float64) []geo.Point {
	out := []geo.Point{g.Coord(path[0])}
	carry := 0.0 // distance already covered toward the next sample
	for i := 0; i+1 < len(path); i++ {
		a, b := g.Coord(path[i]), g.Coord(path[i+1])
		seg := a.Dist(b)
		if seg == 0 {
			continue
		}
		pos := spacing - carry
		for pos < seg {
			out = append(out, a.Lerp(b, pos/seg))
			pos += spacing
		}
		carry = seg - (pos - spacing)
	}
	if last := g.Coord(path[len(path)-1]); out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// LCSAccuracy scores a matched symbol sequence against its ground truth as
// LCS(got, want) / len(want) — the fraction of the true path recovered in
// order. 1.0 means the truth is a subsequence of the match (typically:
// exact recovery); extra detour symbols in got do not raise the score.
// This is the metric of the closed-loop accuracy harness.
func LCSAccuracy(got, want []traj.Symbol) float64 {
	if len(want) == 0 {
		return 1
	}
	if len(got) == 0 {
		return 0
	}
	// Standard O(len(got)·len(want)) LCS with two rolling rows.
	prev := make([]int, len(want)+1)
	cur := make([]int, len(want)+1)
	for i := 1; i <= len(got); i++ {
		for j := 1; j <= len(want); j++ {
			if got[i-1] == want[j-1] {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return float64(prev[len(want)]) / float64(len(want))
}

// TraceStats summarises a batch of traces (used by logs and benchmarks).
type TraceStats struct {
	Traces   int
	Samples  int
	Dropouts int
	// MeanSpacing is the mean distance between consecutive samples,
	// noise included.
	MeanSpacing float64
}

// Stats computes summary statistics over traces.
func Stats(traces []Trace) TraceStats {
	var st TraceStats
	st.Traces = len(traces)
	var distSum float64
	var hops int
	for _, tr := range traces {
		st.Samples += len(tr.Points)
		st.Dropouts += tr.Dropouts
		for i := 1; i < len(tr.Points); i++ {
			distSum += tr.Points[i].Dist(tr.Points[i-1])
			hops++
		}
	}
	if hops > 0 {
		st.MeanSpacing = distSum / float64(hops)
	}
	return st
}
