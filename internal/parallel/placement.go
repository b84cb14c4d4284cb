// Package parallel maps a hybrid DP/PP/EP/TP parallelisation plan onto the
// GPUs of a cluster and accounts communication volumes per parallelism
// (Figure 2) and per GPU pair (Figure 5).
//
// Rank layout follows Megatron convention: TP innermost (so TP groups stay
// inside one server's NVSwitch), then EP, then PP, then DP. One EP group
// therefore occupies EP*TP consecutive GPUs — exactly the span of a MixNet
// reconfigurable region.
package parallel

import (
	"fmt"

	"mixnet/internal/moe"
	"mixnet/internal/topo"
)

// Placement binds a training plan to a contiguous server slice of a
// cluster. NewPlacement covers the whole cluster (the single-job case);
// NewPlacementAt places the plan on [base, base+servers) so several
// independent jobs can share one fabric (internal/tenancy).
type Placement struct {
	Plan    moe.TrainPlan
	Cluster *topo.Cluster

	base    int // first server of the slice
	servers int // servers in the slice
}

// NewPlacement validates that the plan exactly fills the cluster's GPUs.
func NewPlacement(c *topo.Cluster, p moe.TrainPlan) (*Placement, error) {
	return NewPlacementAt(c, p, 0, len(c.Servers))
}

// NewPlacementAt validates that the plan exactly fills the GPUs of the
// server slice [base, base+servers) and binds it there. Rank-to-GPU
// mapping is identical to a solo placement on a cluster of that size,
// just offset by base servers — a job moved onto a slice keeps its
// internal communication structure bitwise.
func NewPlacementAt(c *topo.Cluster, p moe.TrainPlan, base, servers int) (*Placement, error) {
	if base < 0 || servers <= 0 || base+servers > len(c.Servers) {
		return nil, fmt.Errorf("parallel: server slice [%d, %d) outside cluster of %d servers",
			base, base+servers, len(c.Servers))
	}
	need := p.GPUs()
	if have := servers * c.Spec.GPUsPerServer; need != have {
		return nil, fmt.Errorf("parallel: plan needs %d GPUs, slice has %d", need, have)
	}
	if p.TP > c.Spec.GPUsPerServer {
		return nil, fmt.Errorf("parallel: TP=%d exceeds %d GPUs per server (TP must stay on NVSwitch)",
			p.TP, c.Spec.GPUsPerServer)
	}
	return &Placement{Plan: p, Cluster: c, base: base, servers: servers}, nil
}

// Base returns the first server index of the placement's slice.
func (pl *Placement) Base() int { return pl.base }

// NumServers returns the server count of the placement's slice.
func (pl *Placement) NumServers() int { return pl.servers }

// Rank identifies one logical position in the 4-D parallel grid.
type Rank struct{ DP, PP, EP, TP int }

// GPUIndex returns the slice-local GPU index of a rank (server-major
// within the placement's slice; cluster-wide for whole-cluster placements).
func (pl *Placement) GPUIndex(r Rank) int {
	p := pl.Plan
	return ((r.DP*p.PP+r.PP)*p.EP+r.EP)*p.TP + r.TP
}

// RankOf inverts GPUIndex.
func (pl *Placement) RankOf(gpu int) Rank {
	p := pl.Plan
	tp := gpu % p.TP
	gpu /= p.TP
	ep := gpu % p.EP
	gpu /= p.EP
	pp := gpu % p.PP
	gpu /= p.PP
	return Rank{DP: gpu, PP: pp, EP: ep, TP: tp}
}

// GPUNode returns the topology node of a rank's GPU.
func (pl *Placement) GPUNode(r Rank) topo.NodeID {
	return pl.Cluster.GlobalGPU(pl.base*pl.Cluster.Spec.GPUsPerServer + pl.GPUIndex(r))
}

// ServerOf returns the global server index hosting a rank.
func (pl *Placement) ServerOf(r Rank) int {
	return pl.base + pl.GPUIndex(r)/pl.Cluster.Spec.GPUsPerServer
}

// EPGroupGPUs returns the slice-local GPU indices of one EP group
// (all EP x TP GPUs of stage pp in replica dp), in EP-major order.
func (pl *Placement) EPGroupGPUs(dp, pp int) []int {
	p := pl.Plan
	out := make([]int, 0, p.EP*p.TP)
	for ep := 0; ep < p.EP; ep++ {
		for tp := 0; tp < p.TP; tp++ {
			out = append(out, pl.GPUIndex(Rank{DP: dp, PP: pp, EP: ep, TP: tp}))
		}
	}
	return out
}

// EPGroupServers returns the distinct global server indices an EP group
// spans, in ascending order.
func (pl *Placement) EPGroupServers(dp, pp int) []int {
	per := pl.Cluster.Spec.GPUsPerServer
	seen := map[int]bool{}
	var out []int
	for _, g := range pl.EPGroupGPUs(dp, pp) {
		s := pl.base + g/per
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// EPRankLeaderGPU returns the slice-local GPU index of TP rank 0 of an EP
// rank — the rank that initiates that EP rank's all-to-all traffic.
func (pl *Placement) EPRankLeaderGPU(dp, pp, ep int) int {
	return pl.GPUIndex(Rank{DP: dp, PP: pp, EP: ep, TP: 0})
}

// ServerOfEPRank returns the global server hosting EP rank ep of (dp, pp).
func (pl *Placement) ServerOfEPRank(dp, pp, ep int) int {
	return pl.base + pl.EPRankLeaderGPU(dp, pp, ep)/pl.Cluster.Spec.GPUsPerServer
}

// RegionServersPerEPGroup returns how many servers one EP group spans —
// the natural MixNet region size for this plan.
func RegionServersPerEPGroup(p moe.TrainPlan, gpusPerServer int) int {
	span := p.EP * p.TP
	n := span / gpusPerServer
	if n < 1 {
		n = 1
	}
	return n
}
