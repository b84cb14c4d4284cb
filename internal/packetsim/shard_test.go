package packetsim

import (
	"fmt"
	"testing"

	"mixnet/internal/topo"
)

// disjointIncasts builds nShards link-disjoint incast groups on one graph
// and returns the flows both flat (serial order) and grouped per shard.
func disjointIncasts(t *testing.T, nShards, elephants, shorts int) (*topo.Graph, []*Flow, [][]*Flow) {
	t.Helper()
	g := topo.NewGraph()
	var flat []*Flow
	var shards [][]*Flow
	id := 0
	for s := 0; s < nShards; s++ {
		dst := g.AddNode(topo.KindNIC, "", -1, -1, -1)
		sw := g.AddNode(topo.KindTor, "", -1, -1, -1)
		g.AddDuplex(sw, dst, 8e9, 1e-6)
		var shard []*Flow
		add := func(bytes int64, start Time) {
			src := g.AddNode(topo.KindNIC, "", -1, -1, -1)
			g.AddDuplex(src, sw, 8e9, 1e-6)
			rt, err := topo.NewBFSRouter(g).Route(src, dst, uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			f := &Flow{ID: id, Path: rt, Bytes: bytes, Start: start}
			flat = append(flat, f)
			shard = append(shard, f)
			id++
		}
		for i := 0; i < elephants; i++ {
			add(int64(4+s)<<20, 0)
		}
		for i := 0; i < shorts; i++ {
			add(64<<10, FromSeconds(1e-3))
		}
		shards = append(shards, shard)
	}
	return g, flat, shards
}

// simulateInOrder runs the shards one after another on one reused Sim —
// what the netsim packet backend does with each phase — and merges the
// results: the makespan is the maximum over shards and the packet, event and
// mark counters sum.
func simulateInOrder(sim *Sim, g *topo.Graph, shards [][]*Flow, cfg Config) (Result, error) {
	var out Result
	for _, shard := range shards {
		r, err := sim.Simulate(g, shard, cfg)
		if err != nil {
			return Result{}, err
		}
		out.Makespan = max(out.Makespan, r.Makespan)
		out.Packets += r.Packets
		out.Events += r.Events
		out.Marks += r.Marks
	}
	return out, nil
}

// TestShardedMatchesSerial is the core soundness property of sharding:
// link-disjoint shards simulated one after another on one Sim must
// reproduce a single simulation of the whole flow set bit-for-bit —
// makespan, counters and per-flow finish times — for every congestion
// controller.
func TestShardedMatchesSerial(t *testing.T) {
	for _, cc := range CCNames() {
		t.Run(cc, func(t *testing.T) {
			cfg := Config{CC: cc}
			g, flat, _ := disjointIncasts(t, 4, 3, 2)
			want, err := NewSim().Simulate(g, flat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantFinish := make([]Time, len(flat))
			for i, f := range flat {
				wantFinish[i] = f.Finish
			}
			g2, flat2, shards2 := disjointIncasts(t, 4, 3, 2)
			got, err := simulateInOrder(NewSim(), g2, shards2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("shards in order: %+v, whole set: %+v", got, want)
			}
			for i, f := range flat2 {
				if f.Finish != wantFinish[i] {
					t.Fatalf("flow %d: Finish %v, whole set %v", f.ID, f.Finish, wantFinish[i])
				}
			}
		})
	}
}

// TestShardedDeterministicAcrossRuns: a Sim reused across shards and across
// calls must reproduce identical results run over run.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{CC: CCDCQCN}
	sim := NewSim()
	g, flat, shards := disjointIncasts(t, 3, 4, 1)
	first, err := simulateInOrder(sim, g, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstFinish := make([]Time, len(flat))
	for i, f := range flat {
		firstFinish[i] = f.Finish
	}
	for run := 0; run < 3; run++ {
		got, err := simulateInOrder(sim, g, shards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("run %d: %+v, want %+v", run, got, first)
		}
		for i, f := range flat {
			if f.Finish != firstFinish[i] {
				t.Errorf("run %d flow %d: Finish %v, want %v", run, i, f.Finish, firstFinish[i])
			}
		}
	}
}

// TestShardedMergeAllocsStable: a Sim reused across shards keeps its event
// queue and busy array, so once warm it allocates at most once per shard.
func TestShardedMergeAllocsStable(t *testing.T) {
	g, _, shards := disjointIncasts(t, 4, 3, 1)
	sim := NewSim()
	run := func() {
		if _, err := simulateInOrder(sim, g, shards, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grow the event queue and busy array
	if got := testing.AllocsPerRun(5, run); got > float64(len(shards)) {
		t.Errorf("warm shards allocate %v times, want at most %d (one per shard)", got, len(shards))
	}
}

// TestShardedErrorDeterministic: when several shards carry invalid flows,
// simulating them in order reports the first invalid shard's error, and
// the Sim that failed then reproduces a fresh Sim's results on the valid
// shards.
func TestShardedErrorDeterministic(t *testing.T) {
	g, _, shards := disjointIncasts(t, 4, 2, 0)
	shards[1][0].Bytes = -1
	shards[3][0].Bytes = -5
	sim := NewSim()
	_, err := simulateInOrder(sim, g, shards, Config{})
	if want := fmt.Sprintf("packetsim: flow %d negative bytes", shards[1][0].ID); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	valid := [][]*Flow{shards[0], shards[2]}
	want, err := simulateInOrder(NewSim(), g, valid, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulateInOrder(sim, g, valid, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reused Sim after an error: %+v, fresh Sim %+v", got, want)
	}
}

// TestShardedEmpty: zero shards, and an empty shard simulated on a Sim that
// just ran a real one, are no-ops: no makespan, no counters carried over.
func TestShardedEmpty(t *testing.T) {
	g, _, shards := disjointIncasts(t, 1, 2, 0)
	sim := NewSim()
	if _, err := simulateInOrder(sim, g, shards, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, empty := range [][][]*Flow{nil, {{}}} {
		res, err := simulateInOrder(sim, g, empty, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res != (Result{}) {
			t.Errorf("empty shard set %v: %+v", empty, res)
		}
	}
}
