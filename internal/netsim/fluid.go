package netsim

import (
	"mixnet/internal/flowsim"
	"mixnet/internal/topo"
)

// Fluid is the flow-level backend: max-min fair sharing by progressive
// filling (internal/flowsim), re-rated at each flow arrival or completion
// for the link-disjoint flow components it changed.
// It reuses the embedded Sim's arena plus a flow-conversion buffer, so
// repeated Makespan calls over same-sized phases perform zero steady-state
// heap allocations.
type Fluid struct {
	sim   flowsim.Sim
	buf   []flowsim.Flow
	ptrs  []*flowsim.Flow
	batch []float64
}

// NewFluid returns a reusable fluid backend.
func NewFluid() *Fluid { return &Fluid{} }

// Name implements Backend.
func (*Fluid) Name() string { return "fluid" }

// Makespan implements Backend: phases run sequentially on the reusable
// flow-level simulator; per-flow Finish times are copied back.
func (fl *Fluid) Makespan(g *topo.Graph, phases Phases) (float64, error) {
	var total float64
	for _, fs := range phases {
		if len(fs) == 0 {
			continue
		}
		if cap(fl.buf) < len(fs) {
			fl.buf = make([]flowsim.Flow, len(fs))
			fl.ptrs = make([]*flowsim.Flow, len(fs))
		}
		buf, ptrs := fl.buf[:len(fs)], fl.ptrs[:len(fs)]
		for i, f := range fs {
			buf[i] = flowsim.Flow{ID: f.ID, Path: f.Path, Bytes: f.Bytes, Start: f.Start}
			ptrs[i] = &buf[i]
		}
		res, err := fl.sim.Simulate(g, ptrs)
		if err != nil {
			return 0, err
		}
		for i, f := range fs {
			f.Finish = buf[i].Finish
		}
		total += res.Makespan
	}
	return total, nil
}

// BatchMakespan implements Backend via the serial adapter: the fluid solver
// is a single-threaded fixed-point iteration with a shared arena, so steps
// run one after another. The returned slice is owned by the backend and
// valid until the next call.
func (fl *Fluid) BatchMakespan(g *topo.Graph, steps []Phases) ([]float64, error) {
	out, err := SerialBatch(fl, g, steps, fl.batch)
	fl.batch = out[:0:cap(out)]
	return out, err
}
