// Package packetsim is an event-driven packet-level network simulator in
// the spirit of htsim (which the paper builds on): flows are segmented into
// MTU-sized packets, every link models store-and-forward serialisation with
// an output queue, and sources are paced by a pluggable congestion
// controller reacting to per-hop queue depth (see CongestionControl: the
// deterministic fixed window, a DCQCN-style ECN controller, and a
// Swift-style delay controller). Its four events (flow start, hop arrival,
// delivery, acknowledgement) are plain values in a binary heap the Sim
// owns, fired in order of virtual time and then of scheduling, so
// same-instant events fire FIFO and runs are deterministic.
//
// It is the high-fidelity substrate; internal/flowsim approximates it at
// fluid granularity and is cross-validated against it (see crosscheck
// tests). Use packetsim for small configurations and micro-validations,
// flowsim for cluster-scale sweeps.
package packetsim

import (
	"fmt"

	"mixnet/internal/topo"
)

// Config controls packetisation and pacing.
type Config struct {
	MTU    int64 // payload bytes per packet (default 4096)
	Window int   // packets in flight per flow (default 64); adaptive controllers treat it as the window cap

	// CC selects the congestion controller: "fixed" (default), "dcqcn" or
	// "swift". See CCNames.
	CC string
	// ECNThresholdPkts is the output-queue depth, in full-MTU serialisation
	// times at the reference link speed, above which a link ECN-marks a
	// packet (dcqcn; default 8).
	ECNThresholdPkts int
	// ECNRefBps is the link speed class the ECN threshold is expressed at:
	// a link of speed B marks above ECNThresholdPkts * B / ECNRefBps packets
	// of queueing, i.e. per-link thresholds scale with link speed so every
	// class marks at the same queueing *delay*. A constant packet-depth
	// threshold would over-mark fast links (8 packets drain in a fraction of
	// the time) and under-mark slow ones on heterogeneous fabrics. 0 (the
	// default) picks the slowest up link in the graph, which reduces to the
	// historical constant-depth behaviour on homogeneous topologies.
	ECNRefBps float64
	// SwiftTargetFactor scales a flow's uncongested one-way delay into the
	// swift controller's target delay (default 4).
	SwiftTargetFactor float64
}

func (c Config) withDefaults() Config {
	if c.MTU <= 0 {
		c.MTU = 4096
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.CC == "" {
		c.CC = CCFixed
	}
	if c.ECNThresholdPkts <= 0 {
		c.ECNThresholdPkts = 8
	}
	if c.SwiftTargetFactor <= 0 {
		c.SwiftTargetFactor = 4
	}
	return c
}

// Flow is one byte transfer along a fixed path.
type Flow struct {
	ID    int
	Path  topo.Route
	Bytes int64
	Start Time

	// Finish is written by Simulate: virtual time of last byte delivery.
	Finish Time

	totalPkts int64
	nextSeq   int64
	delivered int64
	ackLat    Time

	// congestion-control state, reset by every Simulate call.
	cwnd      float64 // current window in packets
	inflight  int64   // packets sent but not yet acknowledged
	ccAlpha   float64 // controller scalar (dcqcn: EWMA of marked fraction)
	ccWndSeq  int64   // first seq of the current observation window (decrease gating)
	ccAcked   int64   // acks counted in the current observation window
	ccMarked  int64   // ECN-marked acks in the current observation window
	baseDelay float64 // uncongested one-way delay in seconds (serialisation + propagation)
}

// Result summarises a Simulate run.
type Result struct {
	Makespan Time
	Packets  int64
	Events   uint64
	// Marks counts ECN-marked packets (always 0 unless the controller
	// enables marking).
	Marks int64
}

// Sim is a reusable packet-level engine. It owns the event queue and the
// per-link busy array and keeps both across Simulate calls, so once they
// have grown, repeated invocations over the same graph (e.g. the netsim
// packet backend running one collective phase after another) allocate
// only the congestion controller's interface value. Per-flow congestion
// state lives inside the caller's Flows, so no controller state survives a
// call. A Sim must not be used from multiple goroutines concurrently.
type Sim struct {
	q    queue
	busy []Time // per link storage slot: transmitter free-up time

	// Per-call state, set by Simulate.
	g        *topo.Graph
	cfg      Config
	flows    []*Flow
	cc       CongestionControl
	adaptive bool    // controller reacts to acks: always schedule them
	marking  bool    // links ECN-mark over-threshold packets
	ecnDelay float64 // marking threshold as queueing delay in seconds
	total    int64
	marks    int64
}

// NewSim returns an empty reusable packet simulator.
func NewSim() *Sim { return &Sim{} }

// Simulate runs the packet-level simulation of flows over g to completion,
// fills in per-flow Finish times and reuses the Sim's buffers.
func (s *Sim) Simulate(g *topo.Graph, flows []*Flow, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	cc, err := NewCC(cfg)
	if err != nil {
		return Result{}, err
	}
	if cap(s.busy) < len(g.Links) {
		s.busy = make([]Time, len(g.Links))
	}
	s.busy = s.busy[:len(g.Links)]
	clear(s.busy)
	s.q.reset()
	s.g, s.cfg, s.flows, s.cc = g, cfg, flows, cc
	s.adaptive = cfg.CC != CCFixed
	s.marking = cfg.CC == CCDCQCN
	s.ecnDelay, s.total, s.marks = 0, 0, 0
	if s.marking {
		// Per-link thresholds scaled to speed class collapse to one uniform
		// queueing-delay threshold: ECNThresholdPkts full-MTU serialisation
		// times at the reference speed.
		ref := cfg.ECNRefBps
		if ref <= 0 {
			for i := range g.Links {
				l := &g.Links[i]
				if l.Detached {
					// Frozen sim fields of torn-down circuits must not set
					// the live fabric's ECN reference speed.
					continue
				}
				if l.Up && l.Bps > 0 && (ref <= 0 || l.Bps < ref) {
					ref = l.Bps
				}
			}
		}
		if ref > 0 {
			s.ecnDelay = float64(cfg.ECNThresholdPkts) * float64(cfg.MTU*8) / ref
		}
	}
	for _, f := range flows {
		if f.Bytes < 0 {
			return Result{}, fmt.Errorf("packetsim: flow %d negative bytes", f.ID)
		}
		base := 0.0
		for _, lid := range f.Path {
			l := g.Link(lid)
			if !l.Up {
				return Result{}, fmt.Errorf("packetsim: flow %d uses down link %d", f.ID, lid)
			}
			if l.Bps <= 0 {
				return Result{}, fmt.Errorf("packetsim: flow %d uses zero-capacity link %d", f.ID, lid)
			}
			base += float64(cfg.MTU*8)/l.Bps + l.Latency
		}
		f.totalPkts = (f.Bytes + cfg.MTU - 1) / cfg.MTU
		f.nextSeq, f.delivered = 0, 0
		f.Finish = 0
		f.ackLat = FromSeconds(topo.PathLatency(g, f.Path))
		f.cwnd, f.inflight, f.ccAlpha = 0, 0, 0
		f.ccWndSeq, f.ccAcked, f.ccMarked = 0, 0, 0
		f.baseDelay = base
		s.total += f.totalPkts
	}
	s.run()
	res := Result{Packets: s.total, Events: s.q.n, Marks: s.marks}
	for _, f := range flows {
		if f.totalPkts == 0 && f.Finish == 0 {
			f.Finish = f.Start + f.ackLat
		}
		if f.Finish > res.Makespan {
			res.Makespan = f.Finish
		}
	}
	return res, nil
}

// run schedules every flow's start, in flow order, and dispatches events
// until the queue drains.
//
//mixnet:noalloc
func (s *Sim) run() {
	for i, f := range s.flows {
		s.q.push(event{at: f.Start, kind: evStart, flow: int32(i)})
	}
	for len(s.q.h) > 0 {
		ev := s.q.pop()
		switch ev.kind {
		case evStart:
			s.startFlow(ev.flow)
		case evHop:
			s.forward(ev)
		case evDeliver:
			s.deliver(ev)
		case evAck:
			s.ack(ev)
		}
	}
}

func (s *Sim) startFlow(fi int32) {
	f := s.flows[fi]
	if f.totalPkts == 0 || len(f.Path) == 0 {
		f.Finish = s.q.now + f.ackLat
		if f.totalPkts > 0 {
			f.delivered = f.totalPkts
		}
		return
	}
	f.cwnd = s.cc.Init(f)
	s.fillWindow(fi)
}

// fillWindow releases packets until the flow's window is full or its bytes
// are exhausted. Each release is serialised onto the first hop at once.
func (s *Sim) fillWindow(fi int32) {
	f := s.flows[fi]
	allow := int64(f.cwnd)
	if allow < 1 {
		allow = 1
	}
	for f.inflight < allow && f.nextSeq < f.totalPkts {
		seq := f.nextSeq
		f.nextSeq++
		f.inflight++
		s.forward(event{flow: fi, pkt: seq, sent: s.q.now})
	}
}

// pktSize returns the wire size of packet seq of flow f (last packet may be
// short).
func (f *Flow) pktSize(seq int64, mtu int64) int64 {
	if seq == f.totalPkts-1 {
		if rem := f.Bytes - seq*mtu; rem > 0 {
			return rem
		}
	}
	return mtu
}

// forward models packet ev.pkt of flow ev.flow arriving at hop ev.hop now
// and being serialised onto that link, then schedules its arrival at the
// next hop or its delivery. ev.marked accumulates the ECN
// congestion-experienced bit across hops: a link marks when the packet
// finds more than the marking threshold of queueing ahead of it
// (busy[lid] - now).
func (s *Sim) forward(ev event) {
	f := s.flows[ev.flow]
	li := s.g.LinkIndex(f.Path[ev.hop])
	l := &s.g.Links[li]
	size := f.pktSize(ev.pkt, s.cfg.MTU)
	txTime := FromSeconds(float64(size*8) / l.Bps)
	t := s.q.now
	depart := max(t, s.busy[li])
	if s.marking && !ev.marked && (depart-t).Seconds() > s.ecnDelay {
		ev.marked = true
		s.marks++
	}
	done := depart + txTime
	s.busy[li] = done
	ev.at = done + FromSeconds(l.Latency)
	ev.kind = evDeliver
	if int(ev.hop)+1 < len(f.Path) {
		ev.kind = evHop
		ev.hop++
	}
	s.q.push(ev)
}

// deliver models the last byte of a packet reaching the destination. The
// acknowledgement carrying the congestion signals travels back over the
// path's propagation delay; for the fixed controller ack events are elided
// when they can no longer release a packet, preserving the historical event
// schedule byte-for-byte.
func (s *Sim) deliver(ev event) {
	f := s.flows[ev.flow]
	f.delivered++
	if f.delivered == f.totalPkts {
		f.Finish = s.q.now
		return
	}
	if s.adaptive || f.nextSeq < f.totalPkts {
		s.q.push(event{
			at: s.q.now + f.ackLat, kind: evAck, flow: ev.flow, pkt: ev.pkt,
			marked: ev.marked, delay: (s.q.now - ev.sent).Seconds(),
		})
	}
}

// ack applies one acknowledgement at the source: the controller digests the
// congestion signals and the freed window slots release further packets.
func (s *Sim) ack(ev event) {
	f := s.flows[ev.flow]
	if f.inflight > 0 {
		f.inflight--
	}
	f.cwnd = s.cc.OnAck(f, ev.pkt, ev.marked, ev.delay)
	s.fillWindow(ev.flow)
}
