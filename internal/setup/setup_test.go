package setup_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"subtraj/internal/experiments"
	"subtraj/internal/geo"
	"subtraj/internal/setup"
	"subtraj/internal/shortestpath"
	"subtraj/internal/spatial"
	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// paperWorkloads are the four datasets of the paper's Table 2.
var paperWorkloads = []workload.Config{
	workload.BeijingLike(), workload.PortoLike(), workload.SingaporeLike(), workload.SanFranLike(),
}

// TestConfigNames: every dataset name maps to its configuration, scaled
// and clamped to at least 10 trajectories; an unknown name is an error
// listing the valid ones.
func TestConfigNames(t *testing.T) {
	full := append(slices.Clone(paperWorkloads), workload.Tiny(42))
	if len(setup.Datasets) != len(full) {
		t.Fatalf("Datasets = %v, want %d names", setup.Datasets, len(full))
	}
	for i, name := range setup.Datasets {
		for _, scale := range []float64{1, 0.1, 1e-4} {
			got, err := setup.Config(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			want := full[i]
			want.NumTrajectories = max(int(float64(want.NumTrajectories)*scale), 10)
			if got != want || got.Name != name {
				t.Errorf("Config(%q, %g) = %+v, want %+v", name, scale, got, want)
			}
		}
	}
	_, err := setup.Config("atlantis", 1)
	if err == nil {
		t.Fatal("unknown dataset accepted")
	}
	for _, name := range setup.Datasets {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	_, _, err = setup.Model(setup.NewNetwork(workload.Generate(workload.Tiny(42)).Graph), "DTW")
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, name := range setup.Models {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// medianNN is the paper's median nearest-neighbour distance over every
// vertex, by brute force.
func medianNN(coords []geo.Point) float64 {
	var ds []float64
	for v, p := range coords {
		best := math.Inf(1)
		for u, q := range coords {
			if d2 := p.Dist2(q); u != v && d2 > 0 && d2 < best {
				best = d2
			}
		}
		if !math.IsInf(best, 1) {
			ds = append(ds, math.Sqrt(best))
		}
	}
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestModelsAtPaperParameters pins §6.1: each named model answers like
// the wed constructor called with the paper's literal parameters, and
// searches the representation it needs.
func TestModelsAtPaperParameters(t *testing.T) {
	w := workload.Generate(workload.Tiny(42))
	g := w.Graph
	coords := g.Coords()
	tree := spatial.Build(coords)
	und := shortestpath.Undirected(g)
	hubs := shortestpath.BuildHubLabels(und)
	ws := make([]float64, g.NumEdges())
	for i, e := range g.Edges() {
		ws[i] = e.Weight
	}
	medW := g.MedianEdgeWeight()
	want := map[string]wed.FilterCosts{
		"EDR":    wed.NewEDR(coords, tree, 100),
		"ERP":    wed.NewERP(coords, tree, g.Barycenter(), 1e-4*medianNN(coords)),
		"SURS":   wed.NewSURS(ws),
		"Lev":    wed.NewLev(),
		"NetEDR": wed.NewNetEDR(und, hubs, medW),
		"NetERP": wed.NewNetERP(und, hubs, 2e6, medW),
	}
	if len(setup.Models) != len(want) {
		t.Fatalf("Models = %v, want the six WED instances", setup.Models)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range setup.Models {
		got, data, err := setup.Build(w, name)
		if err != nil {
			t.Fatal(err)
		}
		ref, alphabet := want[name], g.NumVertices()
		if name == "SURS" {
			alphabet = g.NumEdges()
			if data.Rep != traj.EdgeRep || data.Len() != w.Data.Len() {
				t.Errorf("SURS searches %d trajectories in representation %v, want the edge representation of %d",
					data.Len(), data.Rep, w.Data.Len())
			}
		} else if data != w.Data {
			t.Errorf("%s does not search the vertex dataset", name)
		}
		if ref == nil || got.Name() != name {
			t.Fatalf("Model(%q) built %q", name, got.Name())
		}
		for i := 0; i < 200; i++ {
			a, b := traj.Symbol(rng.Intn(alphabet)), traj.Symbol(rng.Intn(alphabet))
			if got.Sub(a, b) != ref.Sub(a, b) || got.Ins(a) != ref.Ins(a) || got.Del(a) != ref.Del(a) {
				t.Fatalf("%s: Sub/Ins/Del(%d, %d) differ from the paper's parameters", name, a, b)
			}
			if got.FilterCost(a) != ref.FilterCost(a) {
				t.Fatalf("%s: FilterCost(%d) = %v, want %v", name, a, got.FilterCost(a), ref.FilterCost(a))
			}
			gn, rn := got.Neighbors(a, nil), ref.Neighbors(a, nil)
			slices.Sort(gn)
			slices.Sort(rn)
			if !slices.Equal(gn, rn) {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, a, gn, rn)
			}
		}
	}
}

// TestERPEtaIsTheServedEta: on all four paper workloads the ERP model the
// experiments measure is, field for field, the one the CLIs build
// (setup.Workload then setup.Build, as wedserve -model ERP does), with
// η = 1e-4 × the median nearest-neighbour distance over every vertex.
func TestERPEtaIsTheServedEta(t *testing.T) {
	const scale = 0.01
	for _, cfg := range paperWorkloads {
		w, err := setup.Workload("", cfg.Name, scale, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		served, _, err := setup.Build(w, "ERP")
		if err != nil {
			t.Fatal(err)
		}
		coords := w.Graph.Coords()
		want := wed.NewERP(coords, spatial.Build(coords), w.Graph.Barycenter(), 1e-4*medianNN(coords))
		if !reflect.DeepEqual(served, want) {
			t.Errorf("%s: served ERP is not ERP at η = 1e-4 × the full median", cfg.Name)
		}
		if measured := experiments.GetCtx(cfg, scale).Model("ERP"); !reflect.DeepEqual(measured, served) {
			t.Errorf("%s: the experiments' ERP differs from the served one", cfg.Name)
		}
	}
}
