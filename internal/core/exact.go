package core

import (
	"subtraj/internal/index"
	"subtraj/internal/traj"
)

// SearchExact answers the exact path query of the paper's introduction
// (references [20, 22]): find every subtrajectory that matches Q symbol
// for symbol. It is equivalent to Search with a unit-cost model and an
// infinitesimal τ but runs directly off the inverted index: candidates
// come from the postings of the *rarest* query symbol, and each candidate
// is checked by direct comparison — no dynamic programming at all.
//
// The travel-time workflows (§6.2.1) use this as the exact-match
// baseline that similarity search is compared against.
func (e *Engine) SearchExact(q []traj.Symbol) ([]traj.Match, error) {
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	// Rarest symbol minimises candidates (the MinCand intuition with
	// B(q) = {q} and c(q) uniform).
	rarest := 0
	for i, sym := range q {
		if e.idx.Freq(sym) < e.idx.Freq(q[rarest]) {
			rarest = i
		}
	}
	var out []traj.Match
	// The view's sources hold ascending ID ranges and every list is in
	// (ID, position) order, so matches come out in the canonical
	// (ID, S, T) order as they are found.
	var posts []index.Posting
	for i := 0; i < e.idx.NumShards(); i++ {
		posts = e.idx.Source(i).AppendPostings(posts[:0], q[rarest])
		for _, post := range posts {
			s := int(post.Pos) - rarest
			p := e.ds.Path(post.ID)
			if s < 0 || s+len(q) > len(p) {
				continue
			}
			if symbolsEqual(p[s:s+len(q)], q) {
				out = append(out, traj.Match{
					ID: post.ID,
					S:  int32(s),
					T:  int32(s + len(q) - 1),
				})
			}
		}
	}
	return out, nil
}

func symbolsEqual(a, b []traj.Symbol) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CountExact returns the number of exact occurrences of Q — the paper's
// path popularity estimation application (§1, references [8, 20, 28]).
func (e *Engine) CountExact(q []traj.Symbol) (int, error) {
	ms, err := e.SearchExact(q)
	return len(ms), err
}
