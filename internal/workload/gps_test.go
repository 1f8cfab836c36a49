package workload

import (
	"math"
	"math/rand"
	"testing"

	"subtraj/internal/traj"
)

func TestGenerateTraceDeterministic(t *testing.T) {
	w := Generate(Tiny(5))
	path := w.Data.Trajs[0].Path
	cfg := GPSConfig{NoiseSigma: 15, SampleSpacing: 40, DropoutRate: 0.05}
	a := GenerateTrace(w.Graph, path, cfg, rand.New(rand.NewSource(9)))
	b := GenerateTrace(w.Graph, path, cfg, rand.New(rand.NewSource(9)))
	if len(a.Points) != len(b.Points) || a.Dropouts != b.Dropouts {
		t.Fatalf("same seed produced different traces: %d/%d points, %d/%d dropouts",
			len(a.Points), len(b.Points), a.Dropouts, b.Dropouts)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
}

func TestGenerateTraceSpacingAndNoise(t *testing.T) {
	w := Generate(Tiny(6))
	var path []traj.Symbol
	for _, tr := range w.Data.Trajs {
		if len(tr.Path) >= 10 {
			path = tr.Path
			break
		}
	}
	if path == nil {
		t.Fatal("no long trajectory in tiny workload")
	}
	// Noise-free, 50 m spacing on ~100 m blocks: samples must follow the
	// path closely and be ~50 m apart on average.
	tr := GenerateTrace(w.Graph, path, GPSConfig{NoiseSigma: 1e-9, SampleSpacing: 50}, rand.New(rand.NewSource(1)))
	if len(tr.Points) < len(path) {
		t.Fatalf("50 m spacing on 100 m blocks must oversample the path: %d samples for %d vertices",
			len(tr.Points), len(path))
	}
	st := Stats([]Trace{tr})
	if st.MeanSpacing < 30 || st.MeanSpacing > 70 {
		t.Errorf("mean spacing %.1f m, want ~50 m", st.MeanSpacing)
	}
	// First and last samples coincide with the path endpoints (noise ~0).
	if d := tr.Points[0].Dist(w.Graph.Coord(path[0])); d > 1e-6 {
		t.Errorf("first sample %v not at path start (dist %g)", tr.Points[0], d)
	}
	if d := tr.Points[len(tr.Points)-1].Dist(w.Graph.Coord(path[len(path)-1])); d > 1e-6 {
		t.Errorf("last sample not at path end (dist %g)", d)
	}

	// With noise, samples scatter: the RMS offset from the noise-free
	// positions should be on the order of σ√2.
	noisy := GenerateTrace(w.Graph, path, GPSConfig{NoiseSigma: 20, SampleSpacing: 50}, rand.New(rand.NewSource(1)))
	if len(noisy.Points) != len(tr.Points) {
		t.Fatalf("noise must not change the sample count: %d vs %d", len(noisy.Points), len(tr.Points))
	}
	var sum2 float64
	for i := range noisy.Points {
		sum2 += noisy.Points[i].Dist2(tr.Points[i])
	}
	rms := math.Sqrt(sum2 / float64(len(noisy.Points)))
	if rms < 5 || rms > 100 {
		t.Errorf("RMS offset %.1f m implausible for σ=20", rms)
	}
}

func TestGenerateTraceDropouts(t *testing.T) {
	w := Generate(Tiny(7))
	var path []traj.Symbol
	for _, tr := range w.Data.Trajs {
		if len(tr.Path) >= 15 {
			path = tr.Path
			break
		}
	}
	if path == nil {
		t.Fatal("no long trajectory")
	}
	full := GenerateTrace(w.Graph, path, GPSConfig{SampleSpacing: 30}, rand.New(rand.NewSource(2)))
	holey := GenerateTrace(w.Graph, path, GPSConfig{SampleSpacing: 30, DropoutRate: 0.2, DropoutLen: 4}, rand.New(rand.NewSource(2)))
	if holey.Dropouts == 0 {
		t.Fatal("20% dropout rate produced no dropouts")
	}
	if len(holey.Points) >= len(full.Points) {
		t.Errorf("dropouts must shrink the trace: %d vs %d samples", len(holey.Points), len(full.Points))
	}
}

func TestLCSAccuracy(t *testing.T) {
	for _, tc := range []struct {
		got, want []traj.Symbol
		acc       float64
	}{
		{[]traj.Symbol{1, 2, 3}, []traj.Symbol{1, 2, 3}, 1},
		{[]traj.Symbol{1, 9, 2, 3}, []traj.Symbol{1, 2, 3}, 1},      // detour does not hurt
		{[]traj.Symbol{1, 2}, []traj.Symbol{1, 2, 3, 4}, 0.5},       // truncated
		{[]traj.Symbol{5, 6}, []traj.Symbol{1, 2}, 0},               // disjoint
		{[]traj.Symbol{3, 2, 1}, []traj.Symbol{1, 2, 3}, 1.0 / 3.0}, // reversed
		{nil, []traj.Symbol{1}, 0},
		{[]traj.Symbol{1}, nil, 1},
	} {
		if got := LCSAccuracy(tc.got, tc.want); math.Abs(got-tc.acc) > 1e-12 {
			t.Errorf("LCSAccuracy(%v, %v) = %g, want %g", tc.got, tc.want, got, tc.acc)
		}
	}
}
