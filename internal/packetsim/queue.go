package packetsim

// Time is virtual simulation time in nanoseconds.
type Time int64

// Second is one second of virtual time.
const Second Time = 1_000_000_000

// Seconds converts a virtual time to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts float64 seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// evKind names the four things that happen to a flow.
type evKind uint8

const (
	evStart   evKind = iota // the flow releases its first window
	evHop                   // a packet reaches hop and is serialised onto its link
	evDeliver               // a packet's last byte reaches the destination
	evAck                   // a packet's acknowledgement reaches the source
)

// event is one scheduled occurrence. Events are plain values stored inline
// in the queue, so scheduling one allocates nothing once the queue has
// grown.
type event struct {
	at     Time
	seq    uint64  // scheduling order: same-instant events fire FIFO
	sent   Time    // the packet's release time at the source
	pkt    int64   // packet sequence number within the flow
	delay  float64 // evAck: one-way delay measured at delivery, in seconds
	flow   int32   // index into the simulated flow slice
	hop    int32   // evHop: index into the flow's path
	kind   evKind
	marked bool // ECN congestion-experienced bit, accumulated across hops
}

// before orders events by time, then by scheduling sequence. Sequence
// numbers are unique, so the order is total and every heap shape pops the
// same event sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// queue is the virtual clock plus a binary min-heap of pending events.
type queue struct {
	h   []event
	now Time
	seq uint64
	n   uint64 // events popped
}

// reset empties the queue and returns the clock to 0, keeping the heap's
// backing array for the next run.
func (q *queue) reset() {
	q.h = q.h[:0]
	q.now, q.seq, q.n = 0, 0, 0
}

// push schedules ev, assigning it the next sequence number. A time in the
// past is clamped to now, so the event fires after every event already
// queued for this instant.
//
//mixnet:noalloc
func (q *queue) push(ev event) {
	if ev.at < q.now {
		ev.at = q.now
	}
	q.seq++
	ev.seq = q.seq
	q.h = append(q.h, ev)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes the earliest event, advances the clock to it and counts it.
// The queue must not be empty.
//
//mixnet:noalloc
func (q *queue) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.h = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.now = top.at
	q.n++
	return top
}
