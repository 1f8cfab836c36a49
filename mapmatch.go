package subtraj

import (
	"subtraj/internal/mapmatch"
)

// Re-exported map-matching types.
type (
	// MapMatcher converts raw GPS traces into network-constrained vertex
	// paths via HMM map matching (Newson–Krumm style, the paper's
	// preprocessing step [34]). Build once per road network; it is safe
	// for concurrent use, so one matcher serves any number of goroutines.
	MapMatcher = mapmatch.Matcher
	// MapMatchConfig tunes the HMM. Zero values select defaults suited to
	// ~20 m GPS noise on ~100 m road segments.
	MapMatchConfig = mapmatch.Config
	// MatchResult is a matched trace: one MatchSegment per connected
	// stretch, an overall confidence, and the number of HMM-break splits.
	MatchResult = mapmatch.Result
	// MatchSegment is one connected sub-path of a matched trace, with the
	// sample range it explains and its match confidence.
	MatchSegment = mapmatch.Segment
	// MatchBatchItem is one trace's outcome inside MatchBatch.
	MatchBatchItem = mapmatch.BatchItem
)

// NewMapMatcher builds a matcher over the road network.
func NewMapMatcher(g *Graph, cfg MapMatchConfig) *MapMatcher { return mapmatch.New(g, cfg) }
