package scenario

import "testing"

// warmIterAllocCap bounds the heap allocations of one warm MixNet
// RunIteration. The OCS controller, the all-to-all compiler and the fluid
// drain plan, compile and drain on engine-owned scratch, so what remains is
// the gate, the plan's phase lists and flow slabs, and the router's walks
// after a retarget.
const warmIterAllocCap = 2000

// TestWarmMixNetIterationAllocs runs quick Mixtral on MixNet (seed 7), warms
// the engine with three iterations and requires each further RunIteration to
// allocate at most warmIterAllocCap times.
func TestWarmMixNetIterationAllocs(t *testing.T) {
	e, err := NewEngine(Config{Fabric: "mixnet", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.RunIteration(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm MixNet RunIteration: %.0f allocations", allocs)
	if allocs > warmIterAllocCap {
		t.Errorf("warm MixNet RunIteration allocates %.0f times, want at most %d", allocs, warmIterAllocCap)
	}
}
