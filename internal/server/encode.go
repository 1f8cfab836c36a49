package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The query endpoints' answers are encoded by hand: a wide search returns
// hundreds of matches, and reflective encoding/json spent more CPU on
// them than verification did (DESIGN.md §1.7, "Response encoding").
// appendJSON writes exactly the bytes json.NewEncoder writes for the same
// value; TestQueryResponseEncodingQuick pins it. Every other body keeps
// encoding/json.

// maxRespBuf caps the response buffer a pool keeps, in bytes: an answer
// far outside the steady state gives its buffer back to the GC instead of
// pinning it in the pool.
const maxRespBuf = 1 << 20

var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON answers v with status code. A *queryResponse is encoded by
// appendJSON into a pooled buffer and sent in one Write with its
// Content-Length; anything else goes through encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	r, ok := v.(*queryResponse)
	if !ok {
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
		return
	}
	bp := respBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxRespBuf {
			respBufs.Put(bp)
		}
	}()
	*bp = append(r.appendJSON((*bp)[:0]), '\n')
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(code)
	w.Write(*bp)
}

// appendJSON appends r as encoding/json encodes it, without the newline
// json.Encoder adds: the struct tags' key order and omitempty rules. It is
// deliberately not a MarshalJSON method: batchItemResponse embeds
// *queryResponse, so the method would be promoted and drop the item's
// "error", and encoding/json re-scans what a Marshaler returns.
func (r *queryResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if len(r.Matches) > 0 {
		dst = append(dst, `"matches":[`...)
		for i, m := range r.Matches {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(m.ID), 10)
			dst = append(dst, `,"s":`...)
			dst = strconv.AppendInt(dst, int64(m.S), 10)
			dst = append(dst, `,"t":`...)
			dst = strconv.AppendInt(dst, int64(m.T), 10)
			dst = append(dst, `,"wed":`...)
			dst = appendFloat(dst, m.WED)
			dst = append(dst, '}')
		}
		dst = append(dst, "],"...)
	}
	dst = appendIntField(dst, `"count":`, int64(r.Count))
	if r.Tau != 0 {
		dst = append(dst, `,"tau":`...)
		dst = appendFloat(dst, r.Tau)
	}
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if st := r.Stats; st != nil {
		dst = appendIntField(dst, `,"stats":{"subseq_len":`, int64(st.SubseqLen))
		dst = appendIntField(dst, `,"candidates":`, int64(st.Candidates))
		dst = appendIntField(dst, `,"mincand_ns":`, st.MinCandNS)
		dst = appendIntField(dst, `,"lookup_ns":`, st.LookupNS)
		dst = appendIntField(dst, `,"verify_ns":`, st.VerifyNS)
		dst = appendIntField(dst, `,"plus_len":`, int64(st.PlusLen))
		dst = appendIntField(dst, `,"pruned_trajectories":`, int64(st.PrunedTrajectories))
		dst = appendIntField(dst, `,"pruned_candidates":`, int64(st.PrunedCandidates))
		if st.Queued != 0 {
			dst = appendIntField(dst, `,"queued":`, int64(st.Queued))
		}
		if st.Verified != 0 {
			dst = appendIntField(dst, `,"verified":`, int64(st.Verified))
		}
		dst = append(dst, '}')
	}
	if len(r.ResolvedQ) > 0 {
		dst = append(dst, `,"resolved_q":[`...)
		for i, sym := range r.ResolvedQ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(sym), 10)
		}
		dst = append(dst, ']')
	}
	if r.MatchConfidence != 0 {
		dst = append(dst, `,"match_confidence":`...)
		dst = appendFloat(dst, r.MatchConfidence)
	}
	if r.MatchSplits != 0 {
		dst = appendIntField(dst, `,"match_splits":`, int64(r.MatchSplits))
	}
	// The ?debug=trace tree is debug-only: encoding/json writes it, HTML
	// escaping of its attributes included. Its attributes are the server's
	// own scalars, so Marshal does not fail on them.
	if r.Trace != nil {
		if b, err := json.Marshal(r.Trace); err == nil {
			dst = append(append(dst, `,"trace":`...), b...)
		}
	}
	return append(dst, '}')
}

func appendIntField(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendFloat formats x as encoding/json does: the shortest form that
// round-trips, in 'e' notation outside [1e-6, 1e21) with a one-digit
// negative exponent left unpadded. Integers below 2^53, every WED and τ
// of the unit-cost models among them, print as integers directly; −0
// keeps the slow path, which writes its sign. Callers pass finite values
// only: WEDs, thresholds and match confidences are.
func appendFloat(dst []byte, x float64) []byte {
	if abs := math.Abs(x); abs < 1<<53 && x == math.Trunc(x) && (x != 0 || !math.Signbit(x)) {
		return strconv.AppendInt(dst, int64(x), 10)
	} else if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, x, 'e', -1, 64)
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, x, 'f', -1, 64)
}
