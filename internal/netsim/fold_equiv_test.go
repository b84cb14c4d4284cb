package netsim_test

import (
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// foldedPair builds the same 3-tier fat-tree (12 servers, radix 8 → 24
// leaves in 6 pods) eagerly and symmetry-folded, and materializes the
// folded build's leader servers the way any workload does: by touching
// them through the Cluster accessors.
func foldedPair(t *testing.T) (eager, folded *topo.Cluster) {
	t.Helper()
	spec := topo.DefaultSpec(12, 100*topo.Gbps)
	spec.SwitchRadix = 8
	folded = topo.BuildFatTree(spec)
	spec.Eager = true
	eager = topo.BuildFatTree(spec)
	if !folded.Folded() {
		t.Fatal("folded build did not fold")
	}
	return eager, folded
}

// foldFlows routes a leader all-to-all (GPU 0 of the first half of the
// servers, so the folded build stays partially materialized) over c and
// returns it as two phases with per-pair byte sizes. Finish fields are
// zero: backends write them in place, so each simulation run gets a fresh
// set.
func foldFlows(t *testing.T, c *topo.Cluster) netsim.Phases {
	t.Helper()
	r := topo.NewBFSRouter(c.G)
	n := c.NumServers() / 2
	phases := make(netsim.Phases, 2)
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			src, dst := c.GPU(i, 0), c.GPU(j, 0)
			path, err := r.Route(src, dst, topo.FlowKey(src, dst, uint64(id)))
			if err != nil {
				t.Fatalf("route %v->%v: %v", src, dst, err)
			}
			phases[id%2] = append(phases[id%2], &netsim.Flow{
				ID: id, Path: path, Bytes: float64((i+1)*(j+2)) * 1e6,
			})
			id++
		}
	}
	return phases
}

// TestFoldedClusterByteIdenticalAcrossBackends runs the same leader
// all-to-all on the eager and the partially materialized folded build of
// one fat-tree through every backend — fluid, packet and both analytic
// bounds — and requires bitwise-equal makespans and per-flow completion
// times.
func TestFoldedClusterByteIdenticalAcrossBackends(t *testing.T) {
	t.Parallel()
	eager, folded := foldedPair(t)
	for _, name := range netsim.Names() {
		ep := foldFlows(t, eager)
		fp := foldFlows(t, folded)
		for ph := range ep {
			for i := range ep[ph] {
				if ef, ff := ep[ph][i], fp[ph][i]; ef.ID != ff.ID || ef.Bytes != ff.Bytes ||
					len(ef.Path) != len(ff.Path) {
					t.Fatalf("%s: flow table diverges at phase %d flow %d", name, ph, i)
				}
			}
		}
		be, err := netsim.New(netsim.Config{Backend: name})
		if err != nil {
			t.Fatal(err)
		}
		bf, err := netsim.New(netsim.Config{Backend: name})
		if err != nil {
			t.Fatal(err)
		}
		me, err := be.Makespan(eager.G, ep)
		if err != nil {
			t.Fatalf("%s eager: %v", name, err)
		}
		mf, err := bf.Makespan(folded.G, fp)
		if err != nil {
			t.Fatalf("%s folded: %v", name, err)
		}
		if me != mf {
			t.Errorf("%s: makespan eager %v folded %v", name, me, mf)
		}
		for ph := range ep {
			for i := range ep[ph] {
				if ep[ph][i].Finish != fp[ph][i].Finish {
					t.Errorf("%s: flow %d finish eager %v folded %v",
						name, ep[ph][i].ID, ep[ph][i].Finish, fp[ph][i].Finish)
				}
			}
		}
	}
	if m := folded.MaterializedServers(); m >= folded.NumServers() {
		t.Errorf("folded cluster fully materialized (%d servers); backends should run on the quotient", m)
	}
}
