// Package cost implements the paper's networking cost model (§7.2, §D.2):
// Table 4 component prices applied to a fabric's bill of materials, with
// the EPS link options of §D.3 (transceiver+fiber, AOC, DAC), producing the
// Figure 11 cost curves, the Figure 13 Pareto fronts and the Figure 24 link
// option comparison.
package cost

import (
	"fmt"

	"mixnet/internal/topo"
)

// Prices is one row of Table 4 plus cable options (§D.3). All US dollars.
type Prices struct {
	LinkGbps    int
	Transceiver float64
	NIC         float64
	ElecPort    float64 // electrical switch port
	OCSPort     float64
	PatchPort   float64
	Fiber       float64 // duplex fiber cable
	DAC         float64 // direct-attach copper, short reach
	AOC         float64 // active optical cable, 10 m
}

// Table4 returns the price rows for the four evaluated link bandwidths.
// Transceiver, NIC, switch-port, OCS-port and patch-panel prices follow
// Table 4; fiber/DAC/AOC prices are catalogue estimates (fs.com class)
// since the paper only states it follows TopoOpt's fiber methodology.
func Table4() map[int]Prices {
	return map[int]Prices{
		100: {LinkGbps: 100, Transceiver: 99, NIC: 659, ElecPort: 187, OCSPort: 520, PatchPort: 100, Fiber: 15, DAC: 49, AOC: 120},
		200: {LinkGbps: 200, Transceiver: 239, NIC: 1079, ElecPort: 374, OCSPort: 520, PatchPort: 100, Fiber: 15, DAC: 99, AOC: 250},
		400: {LinkGbps: 400, Transceiver: 659, NIC: 1499, ElecPort: 1090, OCSPort: 520, PatchPort: 100, Fiber: 15, DAC: 199, AOC: 550},
		800: {LinkGbps: 800, Transceiver: 1399, NIC: 2248, ElecPort: 1400, OCSPort: 520, PatchPort: 100, Fiber: 15, DAC: 399, AOC: 1100},
	}
}

// PricesFor returns the Table 4 row for a link bandwidth in Gbps.
func PricesFor(gbps int) (Prices, error) {
	p, ok := Table4()[gbps]
	if !ok {
		return Prices{}, fmt.Errorf("cost: no price row for %d Gbps", gbps)
	}
	return p, nil
}

// LinkOption selects the physical medium of server-to-ToR EPS links (§D.3).
type LinkOption int

// EPS link media.
const (
	LinkFiber LinkOption = iota // optical transceivers + duplex fiber
	LinkAOC                     // active optical cable
	LinkDAC                     // direct-attach copper
)

func (o LinkOption) String() string {
	switch o {
	case LinkDAC:
		return "DAC-3m"
	case LinkAOC:
		return "AOC-10m"
	default:
		return "Transceiver-Fiber"
	}
}

// Breakdown itemises a cluster's networking cost.
type Breakdown struct {
	NICs         float64
	SwitchPorts  float64
	Transceivers float64
	OCSPorts     float64
	PatchPorts   float64
	Cables       float64
}

// Total sums the breakdown.
func (b Breakdown) Total() float64 {
	return b.NICs + b.SwitchPorts + b.Transceivers + b.OCSPorts + b.PatchPorts + b.Cables
}

// Compute prices a bill of materials:
//
//   - every used electrical switch port costs ElecPort;
//   - switch-to-switch fabric links always use 2 transceivers + 1 fiber;
//   - server-to-ToR links use the selected medium (2 transceivers + fiber,
//     one AOC, or one DAC);
//   - every OCS- or patch-attached NIC port uses 1 transceiver, 1 fiber and
//     1 optical port (the OCS/patch panel is passive at the transceiver
//     level).
func Compute(bom topo.BOM, prices Prices, opt LinkOption) Breakdown {
	var b Breakdown
	b.NICs = float64(bom.NICs) * prices.NIC
	b.SwitchPorts = float64(bom.ElecPorts()) * prices.ElecPort
	b.OCSPorts = float64(bom.OCSPorts) * prices.OCSPort
	b.PatchPorts = float64(bom.PatchPorts) * prices.PatchPort

	// Fabric links: always optical.
	b.Transceivers += float64(2*bom.FabricLinks) * prices.Transceiver
	b.Cables += float64(bom.FabricLinks) * prices.Fiber

	// Server-ToR links by medium.
	switch opt {
	case LinkDAC:
		b.Cables += float64(bom.ServerTorLinks) * prices.DAC
	case LinkAOC:
		b.Cables += float64(bom.ServerTorLinks) * prices.AOC
	default:
		b.Transceivers += float64(2*bom.ServerTorLinks) * prices.Transceiver
		b.Cables += float64(bom.ServerTorLinks) * prices.Fiber
	}

	// Optical circuit attachments.
	b.Transceivers += float64(bom.OCSCables+bom.PatchCables) * prices.Transceiver
	b.Cables += float64(bom.OCSCables+bom.PatchCables) * prices.Fiber
	return b
}

// FabricCost builds the named fabric at the given scale and prices it.
// servers is the cluster size in 8-GPU hosts, at least one.
func FabricCost(kind topo.FabricKind, servers, gbps int, opt LinkOption) (Breakdown, error) {
	if servers < 1 {
		return Breakdown{}, fmt.Errorf("cost: %d servers, want at least 1", servers)
	}
	prices, err := PricesFor(gbps)
	if err != nil {
		return Breakdown{}, err
	}
	c, err := topo.Build(kind, topo.DefaultSpec(servers, float64(gbps)*topo.Gbps))
	if err != nil {
		return Breakdown{}, fmt.Errorf("cost: no cost model for fabric %v", kind)
	}
	return Compute(c.BOM, prices, opt), nil
}

// PerfPerDollar is the paper's cost-efficiency metric: inverse iteration
// time normalised by networking cost (§7.4). Both inputs must be positive.
func PerfPerDollar(iterTime, totalCost float64) float64 {
	if iterTime <= 0 || totalCost <= 0 {
		return 0
	}
	return 1 / (iterTime * totalCost)
}
