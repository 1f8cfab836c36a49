package experiments

import (
	"subtraj/internal/traj"
	"subtraj/internal/wed"
)

// KernelReplay times the DP column kernels outside the trie, so that
// their cost per computed cell stands alone (ROADMAP 2a: the compiled-row
// kernel within 2× of a hand-written three-way min). It replays one DP
// chain per query — the query's tail against itself, the near-diagonal
// band shape of the columns verification actually computes — through
//
//	rows       wed.StepDPRows over rows compiled beforehand (what verify runs)
//	interface  wed.StepDPBanded, a wed.Costs call per cell (the reference)
//	floor      an inlined unit-cost full-width loop (no band, no cost model)
type KernelReplay struct {
	costs  wed.Costs
	chains []kernelChain
	a, b   []float64
}

type kernelChain struct {
	qd  []traj.Symbol
	tau float64
	// Compiled costs: sub[i] is the row of qd[i] against qd, ins and del
	// are indexed by position in qd.
	sub      [][]float64
	ins, del []float64
}

// NewKernelReplay builds the chains of queries under tau(q).
func NewKernelReplay(costs wed.Costs, queries [][]traj.Symbol, tau func(q []traj.Symbol) float64) *KernelReplay {
	k := &KernelReplay{costs: costs}
	for _, q := range queries {
		qd := q[1:]
		c := kernelChain{qd: qd, tau: tau(q)}
		for _, p := range qd {
			row := make([]float64, len(qd))
			for j, qs := range qd {
				row[j] = costs.Sub(p, qs)
			}
			c.sub = append(c.sub, row)
			c.ins = append(c.ins, costs.Ins(p))
			c.del = append(c.del, costs.Del(p))
		}
		k.chains = append(k.chains, c)
		if len(q) > len(k.a) {
			k.a, k.b = make([]float64, len(q)), make([]float64, len(q))
		}
	}
	return k
}

// Kernel is one named kernel of a KernelReplay: Pass replays every chain
// once and returns the number of cells it computed.
type Kernel struct {
	Name string
	Pass func() int
}

// Kernels lists the three kernels.
func (k *KernelReplay) Kernels() []Kernel {
	return []Kernel{{"rows", k.rows}, {"interface", k.iface}, {"floor", k.floor}}
}

// root writes the chain's root band (the insertion prefix sums below τ)
// into k.a and returns its upper edge.
func (k *KernelReplay) root(c *kernelChain) (hi int) {
	sum := 0.0
	for j := 0; j <= len(c.qd) && sum < c.tau; j++ {
		k.a[j] = sum
		hi = j + 1
		if j < len(c.qd) {
			sum += c.ins[j]
		}
	}
	return hi
}

func (k *KernelReplay) iface() (cells int) {
	for i := range k.chains {
		c := &k.chains[i]
		a, b := k.a, k.b
		lo, hi := 0, k.root(c)
		for _, p := range c.qd {
			nlo, nhi, n := wed.StepDPBanded(k.costs, c.qd, p, a[lo:hi], lo, hi, c.tau, b)
			cells += n
			if nlo == nhi {
				break
			}
			lo, hi = nlo, nhi
			a, b = b, a
		}
	}
	return cells
}

func (k *KernelReplay) rows() (cells int) {
	for i := range k.chains {
		c := &k.chains[i]
		lo, hi := 0, k.root(c)
		band, dst, spare := k.a[:hi], k.b, k.a
		for s := range c.qd {
			nlo, nhi, n := wed.StepDPRows(c.sub[s], c.ins, c.del[s], band, lo, hi, c.tau, dst)
			cells += n
			if nlo == nhi {
				break
			}
			// The child band sits in dst relative to the parent's lo.
			band, lo, hi = dst[nlo-lo:nhi-lo], nlo, nhi
			dst, spare = spare, dst
		}
	}
	return cells
}

func (k *KernelReplay) floor() (cells int) {
	for i := range k.chains {
		qd := k.chains[i].qd
		a, b := k.a[:len(qd)+1], k.b[:len(qd)+1]
		for j := range a {
			a[j] = float64(j)
		}
		for _, p := range qd {
			b[0] = a[0] + 1
			for j, qs := range qd {
				v := a[j]
				if p != qs {
					v++
				}
				if d := a[j+1] + 1; d < v {
					v = d
				}
				if d := b[j] + 1; d < v {
					v = d
				}
				b[j+1] = v
			}
			a, b = b, a
		}
		cells += len(qd) * (len(qd) + 1)
	}
	return cells
}
