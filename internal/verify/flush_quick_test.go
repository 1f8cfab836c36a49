package verify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subtraj/internal/traj"
)

// TestFlushEqualsComparisonSort checks flush's counting sort against the
// comparison sort it replaced: on random single-trajectory chunks, flush
// leaves in out exactly what traj.SortMatches followed by appendMinMerged
// yields, element for element and WED bit for bit. One verifier serves
// every chunk, so stale counts and scatter buffers from a larger earlier
// chunk are exercised too. The chunks cover heavy duplicate keys with
// unequal WEDs, S = T spans, single elements and keys offset near 10⁵;
// each shape is counted and required.
func TestFlushEqualsComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	v := &Verifier{}
	var seen [4]int
	f := func(seed int64, shape uint8) bool {
		r := rand.New(rand.NewSource(seed))
		shape %= 4
		seen[shape]++
		base := int32(r.Intn(50))
		if shape == 3 {
			base = 100_000 - int32(r.Intn(1000))
		}
		span := 1 + r.Intn(60)
		n := 1 + r.Intn(400)
		var keys [][2]int32
		switch shape {
		case 0: // few keys, many copies
			for range 1 + r.Intn(6) {
				s := base + int32(r.Intn(span))
				keys = append(keys, [2]int32{s, s + int32(r.Intn(span))})
			}
		case 2:
			n = 1
		}
		id := int32(r.Intn(1 << 20))
		chunk := make([]traj.Match, n)
		for i := range chunk {
			s := base + int32(r.Intn(span))
			m := traj.Match{ID: id, S: s, T: s, WED: r.Float64() * 10}
			switch shape {
			case 0:
				k := keys[r.Intn(len(keys))]
				m.S, m.T = k[0], k[1]
			case 1:
				// S = T
			default:
				m.T = s + int32(r.Intn(span))
			}
			chunk[i] = m
		}

		want := append([]traj.Match(nil), chunk...)
		traj.SortMatches(want)
		want = appendMinMerged(nil, want)

		v.chunk = append(v.chunk[:0], chunk...)
		v.out = v.out[:0]
		v.flush()
		if len(v.chunk) != 0 || len(v.out) != len(want) {
			t.Logf("shape %d, %d raw: flush left %d in chunk and %d in out, want 0 and %d", shape, n, len(v.chunk), len(v.out), len(want))
			return false
		}
		for i, w := range want {
			g := v.out[i]
			if g.Key() != w.Key() || math.Float64bits(g.WED) != math.Float64bits(w.WED) {
				t.Logf("shape %d, %d raw: out[%d] = %+v, comparison sort %+v", shape, n, i, g, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	for shape, c := range seen {
		if c == 0 {
			t.Fatalf("chunk shape %d never generated", shape)
		}
	}
}
