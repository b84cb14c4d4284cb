package netsim

import (
	"math"
	"runtime"
	"testing"

	"mixnet/internal/topo"
)

// flowOnLinks builds a flow whose path is the given raw link IDs (the
// partitioner only reads IDs, not the graph).
func flowOnLinks(id int, links ...topo.LinkID) *Flow {
	return &Flow{ID: id, Path: topo.Route(links), Bytes: 1}
}

func shardIDs(shards [][]*Flow) [][]int {
	out := make([][]int, len(shards))
	for k, s := range shards {
		for _, f := range s {
			out[k] = append(out[k], f.ID)
		}
	}
	return out
}

func TestPartitionComponents(t *testing.T) {
	// 0-{l0,l1}, 1-{l1,l2}, 4-{l2}: one component chained through l1/l2.
	// 2-{l5}: its own component. 3-{}: empty path, singleton.
	flows := []*Flow{
		flowOnLinks(0, 0, 1),
		flowOnLinks(1, 1, 2),
		flowOnLinks(2, 5),
		flowOnLinks(3),
		flowOnLinks(4, 2),
	}
	p := NewPartitioner()
	shards := p.Partition(8, flows)
	got := shardIDs(shards)
	want := [][]int{{0, 1, 4}, {2}, {3}}
	if len(got) != len(want) {
		t.Fatalf("got %d shards %v, want %v", len(got), got, want)
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Fatalf("shard %d = %v, want %v", k, got[k], want[k])
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Errorf("shard %d = %v, want %v", k, got[k], want[k])
			}
		}
	}
}

func TestPartitionAllDisjointAndAllJoined(t *testing.T) {
	p := NewPartitioner()
	var disjoint []*Flow
	for i := 0; i < 10; i++ {
		disjoint = append(disjoint, flowOnLinks(i, topo.LinkID(i)))
	}
	if got := p.Partition(16, disjoint); len(got) != 10 {
		t.Errorf("disjoint flows: %d shards, want 10", len(got))
	}
	var joined []*Flow
	for i := 0; i < 10; i++ {
		joined = append(joined, flowOnLinks(i, topo.LinkID(i), 12))
	}
	if got := p.Partition(16, joined); len(got) != 1 {
		t.Errorf("link-sharing flows: %d shards, want 1", len(got))
	}
	if got := p.Partition(16, nil); len(got) != 0 {
		t.Errorf("empty input: %d shards, want 0", len(got))
	}
}

// TestPartitionDeterministic: repeated partitions of the same input are
// structurally identical (the arenas reset fully between calls).
func TestPartitionDeterministic(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 1<<20)
	p := NewPartitioner()
	first := shardIDs(p.Partition(len(c.G.Links), phases[0]))
	for run := 0; run < 5; run++ {
		got := shardIDs(p.Partition(len(c.G.Links), phases[0]))
		if len(got) != len(first) {
			t.Fatalf("run %d: %d shards, want %d", run, len(got), len(first))
		}
		for k := range first {
			if len(got[k]) != len(first[k]) {
				t.Fatalf("run %d shard %d: %v want %v", run, k, got[k], first[k])
			}
			for i := range first[k] {
				if got[k][i] != first[k][i] {
					t.Fatalf("run %d shard %d: %v want %v", run, k, got[k], first[k])
				}
			}
		}
	}
}

// TestPartitionSteadyStateZeroAllocs: the partitioner's arenas must absorb
// repeated same-shaped partitions without heap allocation.
func TestPartitionSteadyStateZeroAllocs(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 1<<20)
	p := NewPartitioner()
	p.Partition(len(c.G.Links), phases[0]) // warm-up
	allocs := testing.AllocsPerRun(10, func() {
		p.Partition(len(c.G.Links), phases[0])
	})
	if allocs != 0 {
		t.Errorf("partition steady state: %v allocs/op, want 0", allocs)
	}
}

// TestPacketShardedByteIdentical: for every congestion controller, the
// sharded packet backend must reproduce the serial reference — each phase
// replayed unpartitioned on one event loop — per-flow finish times and
// makespan bit-for-bit at every worker count.
func TestPacketShardedByteIdentical(t *testing.T) {
	for _, tname := range []string{"fat-tree", "mixnet"} {
		var c *topo.Cluster
		if tname == "fat-tree" {
			c = topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
		} else {
			c = topo.BuildMixNet(topo.DefaultSpec(4, 100*topo.Gbps))
		}
		for _, cc := range []string{"fixed", "dcqcn", "swift"} {
			// Two phases, so the cross-phase job pool is exercised too.
			phases := a2aPhases(t, c, 4<<20)
			phases = append(phases, a2aPhases(t, c, 1<<20)[0])
			wantMs := serialPacket(t, c.G, phases, cc)
			want := takeFinish([]Phases{phases})
			for _, workers := range []int{0, 1, 2, 4, 8} {
				b := NewPacket(Config{CC: cc, Workers: workers})
				ms, err := b.Makespan(c.G, phases)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tname, cc, workers, err)
				}
				if ms != wantMs {
					t.Errorf("%s/%s workers=%d: makespan %v, serial %v", tname, cc, workers, ms, wantMs)
				}
				for i, f := range takeFinish([]Phases{phases}) {
					if f != want[i] {
						t.Fatalf("%s/%s workers=%d: flow finish %d = %v, serial %v",
							tname, cc, workers, i, f, want[i])
					}
				}
			}
		}
	}
}

// TestPacketShardedSteadyStateAllocsStable: the shard merge path reuses its
// arenas, so a reused sharded backend's per-call allocations must not grow
// run over run.
func TestPacketShardedSteadyStateAllocsStable(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 1<<20)
	b := NewPacket(Config{Workers: 4})
	run := func() {
		if _, err := b.Makespan(c.G, phases); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grow partitioner arenas, shard pool, event queues
	first := testing.AllocsPerRun(5, run)
	second := testing.AllocsPerRun(5, run)
	if second > first {
		t.Errorf("sharded packet allocs grew run over run: %v -> %v", first, second)
	}
}

// TestNewWorkers: Workers 0 must resolve to one event loop, not fall
// through to packetsim's GOMAXPROCS default; a negative count selects
// GOMAXPROCS; the other backends accept and ignore it.
func TestNewWorkers(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {4, 4}, {-1, runtime.GOMAXPROCS(0)}} {
		if got := NewPacket(Config{Workers: tc.in}).Workers(); got != tc.want {
			t.Errorf("workers %d resolved to %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, name := range append(Names(), "") {
		if _, err := New(Config{Backend: name, Workers: 8}); err != nil {
			t.Errorf("New(%q, workers 8): %v", name, err)
		}
	}
}

// TestAnalyticECMPRegistry: the ECMP-spreading variant resolves by name and
// reports it.
func TestAnalyticECMPRegistry(t *testing.T) {
	b, err := New(Config{Backend: "analytic-ecmp"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "analytic-ecmp" {
		t.Errorf("Name() = %q", b.Name())
	}
	if NewAnalytic().Name() != "analytic" {
		t.Errorf("sampled-path analytic renamed to %q", NewAnalytic().Name())
	}
}

// TestAnalyticECMPBoundTightness quantifies the ECMP-spread bound against
// the sampled-path bound and fluid, pinning the ecmp <= analytic <= fluid
// ordering on these symmetric fabrics (even splitting is an estimate, not
// a strict bound, on adversarially asymmetric flow sets); the serialization
// term keeps the ecmp bound within a sane envelope of fluid instead of
// collapsing toward zero.
func TestAnalyticECMPBoundTightness(t *testing.T) {
	for _, tname := range []string{"fat-tree", "mixnet"} {
		var c *topo.Cluster
		if tname == "fat-tree" {
			c = topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
		} else {
			c = topo.BuildMixNet(topo.DefaultSpec(4, 100*topo.Gbps))
		}
		phases := a2aPhases(t, c, 8<<20)
		fluid, err := NewFluid().Makespan(c.G, phases)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := NewAnalytic().Makespan(c.G, phases)
		if err != nil {
			t.Fatal(err)
		}
		ecmp, err := NewAnalyticECMP().Makespan(c.G, phases)
		if err != nil {
			t.Fatal(err)
		}
		if ecmp > sampled*(1+1e-9) {
			t.Errorf("%s: ecmp bound %.6fs above sampled bound %.6fs", tname, ecmp, sampled)
		}
		if ecmp > fluid*(1+1e-9) {
			t.Errorf("%s: ecmp bound %.6fs above fluid %.6fs", tname, ecmp, fluid)
		}
		tightness := ecmp / fluid
		t.Logf("%s: fluid %.4fms, sampled %.4fms (%.0f%%), ecmp %.4fms (%.0f%%)",
			tname, fluid*1e3, sampled*1e3, sampled/fluid*100, ecmp*1e3, tightness*100)
		if tightness < 0.30 {
			t.Errorf("%s: ecmp bound degenerate: %.0f%% of fluid", tname, tightness*100)
		}
		if math.IsNaN(ecmp) || ecmp <= 0 {
			t.Errorf("%s: ecmp bound %v", tname, ecmp)
		}
	}
}

// TestAnalyticECMPSpreadsCollisions: when every flow hashes onto the same
// sampled path (same ECMP salt), the sampled-path bound charges the full
// aggregate to one uplink while the ECMP-spread bound divides it across the
// equal-cost candidates — the spread bound must be strictly tighter as a
// fabric-capability estimate.
func TestAnalyticECMPSpreadsCollisions(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	var fs []*Flow
	for j := 1; j < 4; j++ {
		for k := 0; k < 4; k++ {
			rt, err := r.Route(c.GPU(0, 0), c.GPU(j, k), uint64(9)) // one salt: colliding uplinks
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, &Flow{ID: j*4 + k, Path: rt, Bytes: 32 << 20})
		}
	}
	phases := Phases{fs}
	sampled, err := NewAnalytic().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	ecmp, err := NewAnalyticECMP().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	if ecmp >= sampled {
		t.Errorf("collision scenario: ecmp bound %.4fms not tighter than sampled %.4fms",
			ecmp*1e3, sampled*1e3)
	}
	t.Logf("collision scenario: sampled %.4fms, ecmp %.4fms (%.0f%% of sampled)",
		sampled*1e3, ecmp*1e3, ecmp/sampled*100)
}

// TestAnalyticECMPSteadyStateZeroAllocs: the distance-field cache reaches
// steady state, so repeated ECMP-spread makespans allocate nothing.
func TestAnalyticECMPSteadyStateZeroAllocs(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 8<<20)
	if allocs := steadyStateAllocs(t, NewAnalyticECMP(), c, phases); allocs != 0 {
		t.Errorf("analytic-ecmp backend: %v allocs/op in steady state, want 0", allocs)
	}
}

// TestAnalyticECMPFailureFallback: after a link failure the sampled path may
// leave the shortest-path DAG; those hops charge the sampled link fully
// instead of crashing or spreading onto unreachable candidates.
func TestAnalyticECMPFailureFallback(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 1<<20)
	// Down a link unused by the compiled paths to shift the distance field.
	var used = map[topo.LinkID]bool{}
	for _, f := range phases[0] {
		for _, lid := range f.Path {
			used[lid] = true
		}
	}
	for lid := range c.G.Links {
		if !used[topo.LinkID(lid)] {
			c.G.SetLinkUp(topo.LinkID(lid), false)
			break
		}
	}
	ms, err := NewAnalyticECMP().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
		t.Errorf("post-failure ecmp makespan %v", ms)
	}
}
