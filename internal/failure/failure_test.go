package failure

import (
	"testing"

	"mixnet/internal/moe"
	"mixnet/internal/ocs"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

var testModel = moe.Model{
	Name: "tiny", Blocks: 4, Hidden: 2048, FFN: 8192,
	Experts: 8, TopK: 2, Heads: 16, ParamsB: 0.5, BytesElem: 2,
}

var testPlan = moe.TrainPlan{EP: 8, TP: 1, PP: 2, DP: 1, SeqLen: 4096, MicroBatch: 4, NumMicroBatch: 4}

func testSpec(servers int) topo.Spec {
	s := topo.DefaultSpec(servers, 100*topo.Gbps)
	s.GPUsPerServer = 4
	s.NICsPerServer = 4
	s.EPSNICs = 2
	s.OCSNICs = 2
	s.RegionServers = 2
	return s
}

func mkEngine() (*trainsim.Engine, error) {
	c := topo.BuildMixNet(testSpec(4))
	return trainsim.New(testModel, testPlan, c, trainsim.Options{
		GateSeed: 1, FirstA2A: trainsim.FirstA2ACopilot, Device: ocs.NewFixedDevice(25e-3),
	})
}

func mixnetEngine(t *testing.T) *trainsim.Engine {
	t.Helper()
	e, err := mkEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFailEPSNICsRerouted(t *testing.T) {
	c := topo.BuildMixNet(testSpec(4))
	r := topo.NewBFSRouter(c.G)
	// Baseline route exists.
	if _, err := r.Route(c.GPU(0, 0), c.GPU(3, 0), 1); err != nil {
		t.Fatal(err)
	}
	restore, err := FailEPSNICs(c, 0, 2) // both EPS NICs of server 0
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 must remain reachable — via the OCS relay path (§5.4).
	rt, err := r.Route(c.GPU(0, 0), c.GPU(3, 0), 1)
	if err != nil {
		t.Fatalf("server unreachable after EPS NIC failures: %v", err)
	}
	usedCircuit := false
	for _, lid := range rt {
		if c.G.Link(lid).Circuit {
			usedCircuit = true
		}
	}
	if !usedCircuit {
		t.Error("reroute did not use the OCS relay")
	}
	restore()
	if _, err := r.Route(c.GPU(0, 0), c.GPU(3, 0), 1); err != nil {
		t.Errorf("restore failed: %v", err)
	}
}

func TestFailEPSNICsValidation(t *testing.T) {
	c := topo.BuildMixNet(testSpec(4))
	if _, err := FailEPSNICs(c, 99, 1); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := FailEPSNICs(c, 0, 5); err == nil {
		t.Error("expected too-many-NICs error")
	}
}

func TestFailOCSNIC(t *testing.T) {
	c := topo.BuildMixNet(testSpec(4))
	restore, err := FailOCSNIC(c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nic := c.Servers[0].OCSNICs()[0].Node
	for _, lid := range c.G.Out(nic) {
		if c.G.Link(lid).Up {
			t.Error("OCS NIC link still up")
		}
	}
	restore()
	up := false
	for _, lid := range c.G.Out(nic) {
		if c.G.Link(lid).Up {
			up = true
		}
	}
	if !up {
		t.Error("restore did not bring NIC back")
	}
	if _, err := FailOCSNIC(c, 0, 99); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestNICFailureOverheadSmall(t *testing.T) {
	// Figure 14a: one NIC failure costs a few percent, not a collapse.
	over, err := Overhead(mkEngine, func(e *trainsim.Engine) (Restore, error) {
		return FailEPSNICs(e.Cluster, 0, 1)
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if over < -0.02 {
		t.Errorf("NIC failure sped training up by %.1f%%?", -over*100)
	}
	if over > 0.25 {
		t.Errorf("single NIC failure overhead %.1f%% too large", over*100)
	}
}

func mkTPEngine() (*trainsim.Engine, error) {
	// TP=2 so a remapped GPU breaks NVSwitch locality of its TP group
	// (the §7.5 Mixtral scenario).
	plan := moe.TrainPlan{EP: 4, TP: 2, PP: 2, DP: 1, SeqLen: 4096, MicroBatch: 4, NumMicroBatch: 4}
	c := topo.BuildMixNet(testSpec(4))
	return trainsim.New(testModel, plan, c, trainsim.Options{
		GateSeed: 1, FirstA2A: trainsim.FirstA2ACopilot, Device: ocs.NewFixedDevice(25e-3),
	})
}

func TestGPUFailureOverhead(t *testing.T) {
	// Figure 14b: remapping one GPU of a TP group to an off-host backup
	// adds overhead because its TP all-reduces leave NVSwitch (§7.5
	// reports +5.1% for Mixtral 8x22B).
	over, err := Overhead(mkTPEngine, func(e *trainsim.Engine) (Restore, error) {
		return FailGPU(e, 0, 1, 3) // TP rank 1 of EP rank 0 -> server 3
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if over <= 0 {
		t.Errorf("GPU failure overhead %.2f%%, want positive (TP over EPS)", over*100)
	}
	if over > 0.6 {
		t.Errorf("GPU failure overhead %.1f%% too large", over*100)
	}
}

func TestServerFailureWorseThanGPU(t *testing.T) {
	// Figure 14b: a full-server failure costs more than a single GPU.
	gpuOver, err := Overhead(mkEngine, func(e *trainsim.Engine) (Restore, error) {
		return FailGPU(e, 0, 0, 3)
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srvOver, err := Overhead(mkEngine, func(e *trainsim.Engine) (Restore, error) {
		return FailServer(e, 0, 3)
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if srvOver < gpuOver {
		t.Errorf("server failure %.2f%% cheaper than GPU failure %.2f%%", srvOver*100, gpuOver*100)
	}
}

func TestFailServerExcludedFromPlanning(t *testing.T) {
	e := mixnetEngine(t)
	restore, err := FailServer(e, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIteration(); err != nil {
		t.Fatalf("iteration after server failure: %v", err)
	}
	// No live circuit may touch server 0 (detached links are dead history:
	// they only persist so deferred communication steps can simulate).
	for _, l := range e.Cluster.G.Links {
		if l.Circuit && l.Up && !l.Detached {
			if e.Cluster.G.Node(l.From).Server == 0 || e.Cluster.G.Node(l.To).Server == 0 {
				t.Fatal("failed server still holds circuits")
			}
		}
	}
	restore()
	if _, err := e.RunIteration(); err != nil {
		t.Fatalf("iteration after restore: %v", err)
	}
}

// TestFailGPURestoreReleasesPenalty is the regression test for the
// never-decremented TP-over-EPS charge: restoring a failed GPU must lift
// its penalty instead of leaving the engine slow forever.
func TestFailGPURestoreReleasesPenalty(t *testing.T) {
	e, err := mkTPEngine()
	if err != nil {
		t.Fatal(err)
	}
	if e.TPOverEPS() != 0 {
		t.Fatalf("fresh engine TPOverEPS = %d", e.TPOverEPS())
	}
	restore, err := FailGPU(e, 0, 1, 3) // off-host backup: breaks TP locality
	if err != nil {
		t.Fatal(err)
	}
	if e.TPOverEPS() != 1 {
		t.Fatalf("after FailGPU TPOverEPS = %d, want 1", e.TPOverEPS())
	}
	restore()
	if e.TPOverEPS() != 0 {
		t.Errorf("after restore TPOverEPS = %d, want 0 (penalty leaked)", e.TPOverEPS())
	}
}

// TestComposedFailuresUnwindIndependently: restoring one failure must not
// clear the penalties of another still-active failure.
func TestComposedFailuresUnwindIndependently(t *testing.T) {
	e, err := mkTPEngine()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := FailGPU(e, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FailGPU(e, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.TPOverEPS() != 2 {
		t.Fatalf("two failed GPUs: TPOverEPS = %d, want 2", e.TPOverEPS())
	}
	r1()
	if e.TPOverEPS() != 1 {
		t.Fatalf("after first restore TPOverEPS = %d, want 1 (other failure's penalty lost)", e.TPOverEPS())
	}
	r2()
	if e.TPOverEPS() != 0 {
		t.Errorf("after both restores TPOverEPS = %d, want 0", e.TPOverEPS())
	}
}

// TestFailServerRestoreReleasesPenalties mirrors the GPU case for whole
// servers.
func TestFailServerRestoreReleasesPenalties(t *testing.T) {
	e, err := mkTPEngine()
	if err != nil {
		t.Fatal(err)
	}
	restore, err := FailServer(e, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 4 GPUs per server / TP=2 -> 2 spanned TP groups.
	if e.TPOverEPS() != 2 {
		t.Fatalf("after FailServer TPOverEPS = %d, want 2", e.TPOverEPS())
	}
	restore()
	if e.TPOverEPS() != 0 {
		t.Errorf("after restore TPOverEPS = %d, want 0", e.TPOverEPS())
	}
}

// TestFailServerBackupTooSmall: a backup with fewer GPUs must error instead
// of silently doubling ranks up on its GPUs.
func TestFailServerBackupTooSmall(t *testing.T) {
	e := mixnetEngine(t)
	// Shrink the backup server's GPU list in place.
	e.Cluster.Servers[3].GPUs = e.Cluster.Servers[3].GPUs[:2]
	if _, err := e.FailServer(0, 3); err == nil {
		t.Error("backup with fewer GPUs accepted")
	}
}

func TestFailServerValidation(t *testing.T) {
	e := mixnetEngine(t)
	if _, err := FailServer(e, 0, 0); err == nil {
		t.Error("backup == failed should error")
	}
	if _, err := FailServer(e, 0, 99); err == nil {
		t.Error("expected out-of-range error")
	}
}
