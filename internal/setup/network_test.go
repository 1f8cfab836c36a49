package setup

import (
	"sync"
	"testing"

	"subtraj/internal/shortestpath"
	"subtraj/internal/wed"
	"subtraj/internal/workload"
)

// TestModelBuildsOnlyItsSubstrates: a model builds the substrates it
// needs and no others — -model EDR starts without hub labels.
func TestModelBuildsOnlyItsSubstrates(t *testing.T) {
	g := workload.Generate(workload.Tiny(42)).Graph
	for _, tc := range []struct {
		model          string
		tree, und, hub bool
	}{
		{"EDR", true, false, false},
		{"ERP", true, false, false},
		{"SURS", false, false, false},
		{"Lev", false, false, false},
		{"NetEDR", false, true, true},
		{"NetERP", false, true, true},
	} {
		n := NewNetwork(g)
		if _, _, err := Model(n, tc.model); err != nil {
			t.Fatal(err)
		}
		if (n.tree != nil) != tc.tree || (n.und != nil) != tc.und || (n.hubs != nil) != tc.hub {
			t.Errorf("%s built kd-tree %v, adjacency %v, hub labels %v; want %v, %v, %v",
				tc.model, n.tree != nil, n.und != nil, n.hubs != nil, tc.tree, tc.und, tc.hub)
		}
	}
}

// TestConcurrentFirstUse: every model built at once on a fresh Network
// shares one kd-tree, one adjacency and one set of hub labels (run under
// -race: the first uses race on the lazy fields without the once guards).
func TestConcurrentFirstUse(t *testing.T) {
	n := NewNetwork(workload.Generate(workload.Tiny(42)).Graph)
	const workers = 12
	var (
		wg    sync.WaitGroup
		trees = make([]wed.SpatialIndex, workers)
		unds  = make([]*shortestpath.Adjacency, workers)
		hubs  = make([]*shortestpath.HubLabels, workers)
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := Model(n, Models[i%len(Models)]); err != nil {
				t.Error(err)
			}
			trees[i], unds[i], hubs[i] = n.Spatial(), n.UndirectedAdjacency(), n.HubLabels()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if trees[i] != trees[0] || unds[i] != unds[0] || hubs[i] != hubs[0] {
			t.Fatalf("worker %d saw a substrate built twice", i)
		}
	}
}
