package subtraj

import (
	"io"
	"math/rand"

	"subtraj/internal/core"
	"subtraj/internal/geo"
	"subtraj/internal/roadnet"
	"subtraj/internal/setup"
	"subtraj/internal/traj"
	"subtraj/internal/verify"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// Re-exported data model types. Aliases keep the internal packages and the
// public API in lock-step without conversion shims.
type (
	// Symbol is a trajectory element: a vertex or edge ID.
	Symbol = traj.Symbol
	// Trajectory is a network-constrained trajectory (path + timestamps).
	Trajectory = traj.Trajectory
	// Dataset is an in-memory trajectory database.
	Dataset = traj.Dataset
	// Match is one query answer: trajectory ID and 0-based inclusive
	// subtrajectory bounds with the exact WED.
	Match = traj.Match
	// Graph is a directed road network with vertex coordinates and edge
	// weights.
	Graph = roadnet.Graph
	// Point is a planar coordinate.
	Point = geo.Point
	// Costs is a user-definable WED cost model (Sub/Ins/Del).
	Costs = wed.Costs
	// FilterCosts extends Costs with substitution neighbourhoods B(q)
	// and filtering costs c(q); engines require it.
	FilterCosts = wed.FilterCosts
	// QueryStats instruments one query (time breakdown, candidate count,
	// verification rates; the top-k driver adds its queue counters and
	// the final effective τ).
	QueryStats = core.QueryStats
	// TopKOptions tunes the top-k driver (parallelism, cancellation).
	TopKOptions = core.TopKOptions
	// VerifyOptions selects verification mode and ablations.
	VerifyOptions = verify.Options
	// Workload is a generated synthetic city (graph + trajectories).
	Workload = workload.Workload
	// WorkloadConfig parameterises workload generation.
	WorkloadConfig = workload.Config
	// GPSConfig parameterises synthetic GPS trace generation (noise σ,
	// sample spacing, dropout rate).
	GPSConfig = workload.GPSConfig
	// GPSTrace is one synthetic GPS trace with its ground-truth path.
	GPSTrace = workload.Trace
)

// Representation constants.
const (
	// VertexRep marks vertex-ID paths.
	VertexRep = traj.VertexRep
	// EdgeRep marks edge-ID paths.
	EdgeRep = traj.EdgeRep
)

// Verification modes (see the paper's §5 and the -BT/-SW method suffixes).
const (
	// VerifyLocal is local verification (the default): the word
	// enumeration of each trajectory's candidate windows under a unit-cost
	// model and |Q| ≤ 64, else the bidirectional walk of each candidate —
	// under every model with VerifyOptions.CandidateWalk.
	VerifyLocal = verify.ModeLocal
	// VerifySW is a full dynamic-programming scan per candidate.
	VerifySW = verify.ModeSW
)

// NewDataset creates an empty dataset in the given representation.
func NewDataset(rep traj.Representation) *Dataset { return traj.NewDataset(rep) }

// Workload configurations mirroring the paper's four datasets at reduced
// scale (see DESIGN.md §1.2).
var (
	// BeijingLike mirrors the Beijing dataset's shape.
	BeijingLike = workload.BeijingLike
	// PortoLike mirrors Porto (most trajectories, short paths).
	PortoLike = workload.PortoLike
	// SingaporeLike mirrors Singapore (small network, long paths).
	SingaporeLike = workload.SingaporeLike
	// SanFranLike mirrors the synthesised SanFran bulk dataset.
	SanFranLike = workload.SanFranLike
	// TinyWorkload is a miniature workload for tests and demos.
	TinyWorkload = workload.Tiny
)

// Generate builds a synthetic workload deterministically from its config.
func Generate(cfg WorkloadConfig) *Workload { return workload.Generate(cfg) }

// SampleQuery draws a query subtrajectory of the given length from the
// dataset (the paper's §6.3 protocol).
func SampleQuery(ds *Dataset, qlen int, rng *rand.Rand) ([]Symbol, error) {
	return workload.SampleQuery(ds, qlen, rng)
}

// LoadWorkload reads a workload previously written with Workload.Save
// (e.g. by cmd/datagen).
func LoadWorkload(r io.Reader) (*Workload, error) { return workload.Load(r) }

// GenerateGPSTrace samples a noisy GPS trace along a ground-truth vertex
// path — the raw-input side of the GPS-native pipeline, and the labelled
// data of the closed-loop accuracy harness.
func GenerateGPSTrace(g *Graph, path []Symbol, cfg GPSConfig, rng *rand.Rand) GPSTrace {
	return workload.GenerateTrace(g, path, cfg, rng)
}

// LCSAccuracy scores a matched path against its ground truth as the
// longest-common-subsequence fraction of the truth recovered in order.
func LCSAccuracy(got, want []Symbol) float64 { return workload.LCSAccuracy(got, want) }

// SpatialIndex is the black-box spatial index EDR/ERP neighbourhoods use
// (§4.2, Figure 2); the kd-tree is the implementation shipped.
type SpatialIndex = wed.SpatialIndex

// Network prepares the spatial and shortest-path substrates a road network
// needs to serve WED cost models: a spatial index over vertex coordinates
// (EDR/ERP neighbourhoods; a kd-tree), the symmetrised adjacency, and a
// hub-labelling distance index (NetEDR/NetERP), each built lazily on
// first use. Its methods build the six cost models; the CLIs and the
// experiments set their parameters to the paper's (internal/setup).
type Network = setup.Network

// NewNetwork wraps a road network.
func NewNetwork(g *Graph) *Network { return setup.NewNetwork(g) }
