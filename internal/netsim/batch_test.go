package netsim

import (
	"testing"

	"mixnet/internal/topo"
)

// batchSteps compiles nSteps independent single-phase workloads over one
// cluster; flow sizes vary per step so makespans are distinguishable.
func batchSteps(t *testing.T, c *topo.Cluster, nSteps int) []Phases {
	t.Helper()
	r := topo.NewBFSRouter(c.G)
	n := len(c.Servers)
	steps := make([]Phases, nSteps)
	id := 0
	for s := range steps {
		var fs []*Flow
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rt, err := r.Route(c.GPU(i, 0), c.GPU(j, 0), uint64(id))
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, &Flow{ID: id, Path: rt, Bytes: float64(s+1) * (4 << 20)})
				id++
			}
		}
		steps[s] = Phases{fs}
	}
	return steps
}

// takeFinish records per-flow finish times and zeroes them, so a later run
// over the same Flow pointers must write every one of them again to
// compare byte for byte.
func takeFinish(steps []Phases) []float64 {
	var out []float64
	for _, ph := range steps {
		for _, fs := range ph {
			for _, f := range fs {
				out = append(out, f.Finish)
				f.Finish = 0
			}
		}
	}
	return out
}

// TestBatchMakespanMatchesSerial: for every backend, BatchMakespan must
// reproduce the serial reference — each step priced alone, the packet
// backend's phases replayed unpartitioned on one event loop — exactly:
// makespans and per-flow finish times, at every packet worker count.
func TestBatchMakespanMatchesSerial(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	steps := batchSteps(t, c, 4)

	for _, name := range Names() {
		want := make([]float64, len(steps))
		for i, ph := range steps {
			want[i] = serialMakespan(t, name, c.G, ph)
		}
		wantFinish := takeFinish(steps)

		for _, workers := range []int{0, 1, 2, 8} {
			b, err := New(Config{Backend: name, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.BatchMakespan(c.G, steps)
			if err != nil {
				t.Fatalf("%s/w%d: %v", name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/w%d: %d results, want %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/w%d: step %d makespan %v != serial %v", name, workers, i, got[i], want[i])
				}
			}
			for i, f := range takeFinish(steps) {
				if f != wantFinish[i] {
					t.Fatalf("%s/w%d: flow finish %d diverged: %v != %v", name, workers, i, f, wantFinish[i])
				}
			}
		}
	}
}

// TestBatchMakespanReuse: repeated batched submissions on one backend reuse
// its buffers without corrupting results (the engine submits one frontier
// per iteration on a long-lived backend).
func TestBatchMakespanReuse(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	steps := batchSteps(t, c, 3)
	for _, name := range Names() {
		b, err := New(Config{Backend: name, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		first, err := b.BatchMakespan(c.G, steps)
		if err != nil {
			t.Fatal(err)
		}
		snap := append([]float64(nil), first...)
		for rep := 0; rep < 3; rep++ {
			again, err := b.BatchMakespan(c.G, steps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range snap {
				if again[i] != snap[i] {
					t.Fatalf("%s: repeat %d step %d: %v != %v", name, rep, i, again[i], snap[i])
				}
			}
		}
		// Shrinking and growing the batch must not leak stale totals.
		one, err := b.BatchMakespan(c.G, steps[:1])
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 || one[0] != snap[0] {
			t.Fatalf("%s: shrunk batch %v, want [%v]", name, one, snap[0])
		}
	}
}

// TestBatchMakespanErrors: a failing step must fail the whole batch on
// every backend, and the lowest-indexed step's error wins on the parallel
// paths so reporting is scheduling-independent.
func TestBatchMakespanErrors(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(2, 100*topo.Gbps))
	steps := batchSteps(t, c, 2)
	bad := &Flow{ID: 999, Path: steps[1][0][0].Path, Bytes: -(4 << 20)}
	steps[1] = Phases{{bad}}
	for _, name := range Names() {
		b, err := New(Config{Backend: name, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.BatchMakespan(c.G, steps); err == nil {
			t.Errorf("%s: negative-byte step accepted", name)
		}
	}
}
