// Package subtraj is a from-scratch Go implementation of
//
//	Koide, Xiao, Ishikawa. "Fast Subtrajectory Similarity Search in Road
//	Networks under Weighted Edit Distance Constraints." PVLDB 13(11), 2020.
//
// It answers subtrajectory similarity queries over network-constrained
// trajectory databases: given a query path Q, a weighted edit distance
// (WED) cost model, and a threshold τ, it finds every subtrajectory
// P^(id)[s..t] in the database with wed(P[s..t], Q) < τ — exactly, for any
// cost model in the WED class (Levenshtein, EDR, ERP, NetEDR, NetERP,
// SURS, or user-defined costs satisfying the symmetry assumptions).
//
// The engine follows the paper's filter-and-verify design: an inverted
// index over path symbols, subsequence filtering with an optimised
// τ-subsequence chosen by a 2-approximation to the NP-hard minimum
// candidate problem, and local verification that runs the WED dynamic
// programming bidirectionally from candidate positions. DP columns are
// τ-banded — only the cell range that can still influence a result under
// the query threshold is computed, bit-equal to the full-width DP — and
// QueryStats reports the cell-level pruning via the
// Verify.CellsComputed/CellsAvailable band counters next to the paper's
// UPR rate. The paper's bidirectional tries, which cached DP columns
// across candidates sharing a path prefix, are not kept: after the
// trajectory-level pre-filter too few candidates share one to pay for
// them.
//
// # Quick start
//
//	w := subtraj.Generate(subtraj.BeijingLike())     // or load your own data
//	net := subtraj.NewNetwork(w.Graph)
//	eng, _ := subtraj.NewEngine(w.Data, net.EDR(50)) // EDR with ε = 50 m
//	q, _ := subtraj.SampleQuery(w.Data, 60, rng)
//	matches, _ := eng.SearchRatio(q, 0.1)            // τ = 0.1·Σc(q)
//
// Every search is a Query — Q and τ of Definition 3, plus the §4.3
// temporal window, verification options and a worker cap — which
// SearchQuery answers with its QueryStats:
//
//	qr := subtraj.Query{Q: q, Tau: eng.Threshold(q, 0.1)}
//	qr.Temporal.Mode = subtraj.TemporalOverlap       // traversals touching
//	qr.Temporal.Lo, qr.Temporal.Hi = 7*3600, 10*3600 // 07:00–10:00
//	matches, stats, _ := eng.SearchQuery(qr)
//
// Queries on an Engine may run concurrently with each other, but not
// with Append, and Engines expose no synchronization; wrap one in
// NewSafeEngine to share it across goroutines that also append, or serve
// it over HTTP with cmd/wedserve. A single query with enough work may
// itself fan out over ranges of its candidates (up to one worker per CPU
// by default; see Query.Parallelism), so custom cost models must be safe
// for concurrent reads — every built-in model is. Set Parallelism to 1 to
// keep a query strictly on the calling goroutine.
//
// See examples/ for complete programs (travel-time estimation,
// alternative-route suggestion, temporal search, an HTTP client) and
// DESIGN.md for the paper-to-module map.
package subtraj
