package experiments_test

import (
	"strings"
	"testing"

	"subtraj/internal/experiments"
	"subtraj/internal/traj"
	"subtraj/internal/workload"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() experiments.Options {
	return experiments.Options{Scale: 0.02, Queries: 2, QueryLen: 20, Seed: 7}
}

func tinyDatasets() []experiments.Ctx2 {
	return []experiments.Ctx2{{Cfg: workload.BeijingLike(), Scale: 1}}
}

func checkTable(t *testing.T, tb *experiments.Table, wantRows int) {
	t.Helper()
	if tb == nil {
		t.Fatal("nil table")
	}
	if len(tb.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want at least %d", tb.ID, len(tb.Rows), wantRows)
	}
	var sb strings.Builder
	tb.Format(&sb)
	out := sb.String()
	if !strings.Contains(out, tb.ID) {
		t.Fatalf("%s: formatted output missing ID", tb.ID)
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Header) {
			t.Fatalf("%s: row width %d != header width %d (%v)", tb.ID, len(row), len(tb.Header), row)
		}
	}
}

func TestFig6Smoke(t *testing.T) {
	tb := experiments.Fig6VaryTau(tinyDatasets(), []string{"EDR", "SURS"}, []float64{0.1, 0.2}, tinyOpts())
	checkTable(t, tb, 2*7) // two models x seven supported methods
}

func TestFig7Smoke(t *testing.T) {
	tb := experiments.Fig7VaryQueryLen(tinyDatasets(), []string{"Lev"}, []int{10, 20}, tinyOpts())
	checkTable(t, tb, 7)
}

func TestFig8Smoke(t *testing.T) {
	tb := experiments.Fig8VaryDatasetSize(tinyDatasets(), []string{"Lev"}, []float64{0.5, 1}, tinyOpts())
	checkTable(t, tb, 7)
}

func TestFig9Fig10Smoke(t *testing.T) {
	tb := experiments.Fig9EnumBaselinesTau(workload.BeijingLike(), 25, []float64{0.1, 0.2}, tinyOpts())
	checkTable(t, tb, 7) // EDR: 3 methods; ERP: 4 methods
	tb10 := experiments.Fig10EnumBaselinesSize(workload.BeijingLike(), []int{20, 30}, tinyOpts())
	checkTable(t, tb10, 7)
}

func TestFig11Smoke(t *testing.T) {
	tb := experiments.Fig11CandidateCounts(workload.BeijingLike(), []string{"EDR", "SURS"}, []float64{0.1}, []int{10}, tinyOpts())
	// EDR: OSF, DISON, Torch, q-gram; SURS: OSF, DISON, Torch.
	checkTable(t, tb, 7)
}

func TestFig12Smoke(t *testing.T) {
	tb := experiments.Fig12Temporal(tinyDatasets(), []float64{0.1, 0.5}, tinyOpts())
	checkTable(t, tb, 2)
}

func TestFig13Smoke(t *testing.T) {
	tb := experiments.Fig13VaryEta(tinyDatasets(), []float64{1e-4, 1},
		[][2]interface{}{{0.1, 10}}, tinyOpts())
	checkTable(t, tb, 2)
}

func TestTab4Tab5Smoke(t *testing.T) {
	tb := experiments.Tab4Breakdown(workload.BeijingLike(), tinyOpts())
	checkTable(t, tb, 5)
	tb5 := experiments.Tab5VerifyRates(workload.BeijingLike(), tinyOpts())
	checkTable(t, tb5, 7)
}

func TestTab6Smoke(t *testing.T) {
	tb := experiments.Tab6IndexBuild(tinyDatasets(), 20, tinyOpts())
	checkTable(t, tb, 4)
}

func TestFig4Tab3Smoke(t *testing.T) {
	opts := tinyOpts()
	opts.Scale = 0.04 // sparse-query sampling needs a few route repeats
	tb := experiments.Fig4TravelTime(workload.BeijingLike(), []float64{0, 0.1}, 3, opts)
	checkTable(t, tb, 10)
	tb3 := experiments.Tab3SubVsWhole(workload.BeijingLike(), []int{3, 5}, 3, opts)
	checkTable(t, tb3, 2)
}

func TestFig5Smoke(t *testing.T) {
	tb := experiments.Fig5Naturalness(workload.BeijingLike(), []int{12}, []float64{0.1, 0.2}, 2, tinyOpts())
	checkTable(t, tb, 10)
}

// TestKernelReplayKernelsAgree: the compiled-row and interface kernels
// replay the same chains, so they must report the same cell count, and
// the floor its full-width count.
func TestKernelReplayKernelsAgree(t *testing.T) {
	c := experiments.GetCtx(workload.BeijingLike(), 0.02)
	queries := c.Queries("EDR", 20, 3, 7)
	k := experiments.NewKernelReplay(c.Model("EDR"), queries,
		func(q []traj.Symbol) float64 { return c.Tau("EDR", q, 0.2) })
	cells := map[string]int{}
	for _, kern := range k.Kernels() {
		cells[kern.Name] = kern.Pass()
	}
	if cells["rows"] == 0 || cells["rows"] != cells["interface"] {
		t.Fatalf("rows computed %d cells, interface %d", cells["rows"], cells["interface"])
	}
	if want := len(queries) * 19 * 20; cells["floor"] != want {
		t.Fatalf("floor computed %d cells, want %d", cells["floor"], want)
	}
}
