// Package setup is the paper's evaluation setup (§6.1) in one place: the
// dataset names and their synthetic stand-ins (DESIGN.md §1.2), the road
// network's lazily built substrates, and the six WED cost models at the
// paper's parameters. The CLIs, the experiments and the public API all
// read it, so the model a figure measures is the model wedserve serves.
package setup

import (
	"fmt"
	"os"
	"strings"

	"subtraj/internal/traj"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// §6.1's constants. The median-derived parameters (ERP's η, NetEDR's ε,
// NetERP's η) are computed from the network by Model.
const (
	// EDREps is EDR's matching threshold ε: one nominal block, the
	// paper's 0.001° ≈ 100 m.
	EDREps = 100.0
	// ERPEtaScale is ERP's η as a multiple of the median
	// nearest-neighbour distance (Appendix D).
	ERPEtaScale = 1e-4
	// NetERPGdel is NetERP's deletion constant G_del (metres), making
	// deletions far costlier than any realistic substitution chain.
	NetERPGdel = 2e6
)

// Datasets lists the dataset names Config accepts: the paper's four in
// Table 2's order, then the test-size "tiny".
var Datasets = []string{"beijing", "porto", "singapore", "sanfran", "tiny"}

// Models lists the six WED instances Model accepts, in the paper's
// presentation order.
var Models = []string{"EDR", "ERP", "SURS", "Lev", "NetEDR", "NetERP"}

// models is §6.1's parameter set, with the representation of the dataset
// each model searches (SURS sums road lengths, which are edge weights).
var models = map[string]struct {
	rep   traj.Representation
	build func(n *Network) wed.FilterCosts
}{
	"EDR":    {traj.VertexRep, func(n *Network) wed.FilterCosts { return n.EDR(EDREps) }},
	"ERP":    {traj.VertexRep, func(n *Network) wed.FilterCosts { return n.ERP(n.DefaultERPEta()) }},
	"SURS":   {traj.EdgeRep, (*Network).SURS},
	"Lev":    {traj.VertexRep, (*Network).Lev},
	"NetEDR": {traj.VertexRep, func(n *Network) wed.FilterCosts { return n.NetEDR(n.G.MedianEdgeWeight()) }},
	"NetERP": {traj.VertexRep, func(n *Network) wed.FilterCosts { return n.NetERP(NetERPGdel, n.G.MedianEdgeWeight()) }},
}

// Config returns the named dataset's configuration with its trajectory
// count scaled by scale and clamped to at least 10, so that a tiny scale
// still leaves trajectories to sample queries from.
func Config(name string, scale float64) (workload.Config, error) {
	for _, cfg := range []workload.Config{workload.BeijingLike(), workload.PortoLike(),
		workload.SingaporeLike(), workload.SanFranLike(), workload.Tiny(42)} {
		if cfg.Name == name {
			cfg = cfg.Scale(scale)
			cfg.NumTrajectories = max(cfg.NumTrajectories, 10)
			return cfg, nil
		}
	}
	return workload.Config{}, fmt.Errorf("unknown dataset %q (want %s)", name, strings.Join(Datasets, "|"))
}

// Workload reads the workload gob at path (written by cmd/datagen) or,
// with no path, generates the named dataset at the given scale; logf
// reports which before the work starts.
func Workload(path, dataset string, scale float64, logf func(format string, args ...any)) (*workload.Workload, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		logf("loading %s", path)
		return workload.Load(f)
	}
	cfg, err := Config(dataset, scale)
	if err != nil {
		return nil, err
	}
	logf("generating %s workload (%d trajectories)...", cfg.Name, cfg.NumTrajectories)
	return workload.Generate(cfg), nil
}

// Rep returns the representation of the dataset the named model searches.
func Rep(name string) (traj.Representation, error) {
	m, ok := models[name]
	if !ok {
		return 0, fmt.Errorf("unknown model %q (want %s)", name, strings.Join(Models, "|"))
	}
	return m.rep, nil
}

// Model returns the named cost model over n at §6.1's parameters and the
// representation of the dataset it searches. It builds only the
// substrates that model needs.
func Model(n *Network, name string) (wed.FilterCosts, traj.Representation, error) {
	rep, err := Rep(name)
	if err != nil {
		return nil, 0, err
	}
	return models[name].build(n), rep, nil
}

// Build returns the named cost model over w's network and the dataset it
// searches: w.Data, or its edge representation for SURS.
func Build(w *workload.Workload, name string) (wed.FilterCosts, *traj.Dataset, error) {
	costs, rep, err := Model(NewNetwork(w.Graph), name)
	if err != nil {
		return nil, nil, err
	}
	if rep == traj.VertexRep {
		return costs, w.Data, nil
	}
	data, err := w.Data.ToEdgeRep(w.Graph)
	return costs, data, err
}
