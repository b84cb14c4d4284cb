package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mixnet/internal/commplan"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// AblationOverlap quantifies the compute/communication overlap disciplines
// (trainsim.Options.Overlap): iteration time under serial accounting, with
// layer-level overlap, and with the cross-iteration rolling window, plus
// the plan-level observables — frontier widths, step composition and the
// pooled packet-event concurrency bound the batched window exposes.
func AblationOverlap(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_overlap", Title: "Ablation: compute/communication overlap (Mixtral 8x7B, 100G MixNet)",
		Header: []string{"Overlap", "Iter time (s)", "Speedup", "Frontier max", "Frontier mean", "Comm steps", "Compute steps", "Pooled event bound"},
		Notes:  "slot composition (A2A/compute/blocked) is identical across disciplines; only the accounting overlaps it",
	}
	m := moe.Mixtral8x7B
	plan := planFor(m, Quick, 0)
	servers := plan.GPUs() / 8
	iters := itersFor(scale) + 1 // warm the cross-iteration carry
	var base float64
	for _, ov := range trainsim.OverlapModes() {
		c := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
		opts := mixnetOpts(9)
		opts.Overlap = ov
		e, err := newEngine(m, plan, c, opts)
		if err != nil {
			return t, err
		}
		stats, err := e.Run(iters)
		if err != nil {
			return t, err
		}
		mean := trainsim.MeanIterTime(stats)
		if ov == "none" {
			base = mean
		}
		s := e.CommPlan().Stats()
		comm := s.ByKind[commplan.KindA2A1] + s.ByKind[commplan.KindA2A2] + s.ByKind[commplan.KindDP]
		// The bound depends on the comm steps, not the overlap edges, so
		// replaying it per discipline would triple the runtime for the same
		// number: measure the "none" baseline and the rolling window.
		bound := "-"
		if ov != "layer" {
			total, maxShard, err := planEvents(e)
			if err != nil {
				return t, err
			}
			bound = f2(float64(total) / float64(maxShard))
		}
		t.Rows = append(t.Rows, []string{
			ov, f3(mean), f2(base / mean),
			fmt.Sprint(s.FrontierMax), f2(s.FrontierMean),
			fmt.Sprint(comm), fmt.Sprint(s.ByKind[commplan.KindCompute]),
			bound,
		})
	}
	return t, nil
}

// shardEvents replays workloads through the packet simulator shard by shard
// — the jobs the packet backend's worker pool drains — and returns the
// total packet event count and the largest single shard job's count: the
// pooled event-concurrency bound is their ratio. Nil workloads (zero-flow
// plan steps, priced as delays) count nothing.
func shardEvents(g *topo.Graph, work []netsim.Phases) (total, maxShard uint64, err error) {
	part := netsim.NewPartitioner()
	sim := packetsim.NewSim()
	cfg := packetsim.Config{MTU: netsim.PacketMTU}
	for _, ph := range work {
		for _, fs := range ph {
			if len(fs) == 0 {
				continue
			}
			for _, shard := range part.Partition(len(g.Links), fs) {
				pf := make([]*packetsim.Flow, len(shard))
				for i, f := range shard {
					pf[i] = &packetsim.Flow{ID: f.ID, Path: f.Path, Bytes: int64(f.Bytes)}
				}
				res, err := sim.Simulate(g, pf, cfg)
				if err != nil {
					return 0, 0, err
				}
				total += res.Events
				maxShard = max(maxShard, res.Events)
			}
		}
	}
	return total, maxShard, nil
}

// planEvents is shardEvents over the engine's last communication plan; a
// plan that produces no packet events is an error.
func planEvents(e *trainsim.Engine) (total, maxShard uint64, err error) {
	steps := e.CommPlan().Steps()
	work := make([]netsim.Phases, len(steps))
	for i := range steps {
		work[i] = steps[i].Phases
	}
	total, maxShard, err = shardEvents(e.Cluster.G, work)
	if err == nil && total == 0 {
		err = fmt.Errorf("experiments: communication plan produced no packet events")
	}
	return total, maxShard, err
}

// MultiCoreReport is the BENCH_*_packet.json multi_core entry: the packet
// backend's measured wall-clock sharding speedup next to the structural
// event-concurrency bound, or a single_core marker when the host cannot
// run shards in parallel.
type MultiCoreReport struct {
	Cores int `json:"cores"`
	// GoMaxProcs and HostCores record the measurement environment, keeping
	// the single_core marker verifiable: a regeneration on a multi-core
	// host (the ROADMAP carryover) must show host_cores > 1 alongside a
	// measured wall_clock_speedup.
	GoMaxProcs int `json:"gomaxprocs"`
	HostCores  int `json:"host_cores"`
	// SingleCore marks hosts where GOMAXPROCS == 1: the structural bound
	// still holds but no wall-clock speedup is measurable.
	SingleCore bool    `json:"single_core,omitempty"`
	Steps      int     `json:"steps"`
	Flows      int     `json:"flows"`
	SerialSec  float64 `json:"serial_seconds"`
	ShardedSec float64 `json:"sharded_seconds,omitempty"`
	// Speedup is serial wall-clock over sharded wall-clock for the same
	// batched workload (byte-identical makespans).
	Speedup float64 `json:"wall_clock_speedup,omitempty"`
	// EventBound is the structural concurrency bound: total packet events
	// over the largest single shard job's events.
	EventBound float64 `json:"event_concurrency_bound"`
}

// multiCoreWorkload builds a deterministic batch of cross-server all-to-all
// steps on an 8-server fat-tree: enough link-disjoint flows per step that
// the partitioner produces several shards for the worker pool to drain.
func multiCoreWorkload() (*topo.Cluster, []netsim.Phases, error) {
	c := topo.BuildFatTree(topo.DefaultSpec(8, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	var steps []netsim.Phases
	id := 0
	for step := 0; step < 6; step++ {
		var fs []*netsim.Flow
		for s := 0; s < 8; s++ {
			for g := 0; g < 4; g++ {
				dst := (s + step + 1) % 8
				rt, err := r.Route(c.GPU(s, g), c.GPU(dst, (g+step)%8), uint64(id))
				if err != nil {
					return nil, nil, err
				}
				fs = append(fs, &netsim.Flow{ID: id, Path: rt, Bytes: float64(4 << 20)})
				id++
			}
		}
		steps = append(steps, netsim.Phases{fs})
	}
	return c, steps, nil
}

// MultiCoreWallClock measures the packet backend's batched-shard wall-clock
// speedup on this host: the same BatchMakespan workload through one event
// loop and through GOMAXPROCS sharded loops, verified byte-identical,
// plus the structural event-concurrency bound. On single-core hosts it
// returns the bound with the single_core marker instead of a speedup.
// Errors and result divergence (neither occurs on a healthy build) return
// nil so callers can omit the JSON entry.
func MultiCoreWallClock() *MultiCoreReport {
	c, steps, err := multiCoreWorkload()
	if err != nil {
		return nil
	}
	rep := &MultiCoreReport{
		Cores:      runtime.GOMAXPROCS(0),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		HostCores:  runtime.NumCPU(),
		Steps:      len(steps),
	}
	for _, ph := range steps {
		for _, fs := range ph {
			rep.Flows += len(fs)
		}
	}
	serial, err := netsim.New(netsim.Config{Backend: "packet"})
	if err != nil {
		return nil
	}
	start := time.Now()
	ref, err := serial.BatchMakespan(c.G, steps)
	if err != nil {
		return nil
	}
	rep.SerialSec = time.Since(start).Seconds()
	if rep.Cores <= 1 {
		rep.SingleCore = true
	} else {
		sharded, err := netsim.New(netsim.Config{Backend: "packet", Workers: -1})
		if err != nil {
			return nil
		}
		start = time.Now()
		got, err := sharded.BatchMakespan(c.G, steps)
		if err != nil {
			return nil
		}
		rep.ShardedSec = time.Since(start).Seconds()
		for i := range ref {
			if got[i] != ref[i] {
				return nil
			}
		}
		if rep.ShardedSec > 0 {
			rep.Speedup = rep.SerialSec / rep.ShardedSec
		}
	}
	total, maxShard, err := shardEvents(c.G, steps)
	if err != nil {
		return nil
	}
	if maxShard > 0 {
		rep.EventBound = float64(total) / float64(maxShard)
	}
	return rep
}
