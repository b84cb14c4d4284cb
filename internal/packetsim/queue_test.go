package packetsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := FromSeconds(0.001); got != Second/1000 {
		t.Errorf("FromSeconds(0.001) = %d, want 1ms", got)
	}
}

// drain pops every queued event and returns them in firing order.
func drain(q *queue) []event {
	var out []event
	for len(q.h) > 0 {
		out = append(out, q.pop())
	}
	return out
}

// TestFIFOTieBreak: events pushed for the same instant fire in push order.
func TestFIFOTieBreak(t *testing.T) {
	var q queue
	for i := 0; i < 10; i++ {
		q.push(event{at: 5, pkt: int64(i)})
	}
	for i, ev := range drain(&q) {
		if ev.pkt != int64(i) || ev.at != 5 {
			t.Fatalf("event %d: pkt %d at %d, want pkt %d at 5", i, ev.pkt, ev.at, i)
		}
	}
}

// TestScheduleOrdering: events pushed out of time order pop in time order,
// and the clock ends at the last one.
func TestScheduleOrdering(t *testing.T) {
	var q queue
	for _, at := range []Time{30, 10, 20} {
		q.push(event{at: at, pkt: int64(at / 10)})
	}
	got := drain(&q)
	if len(got) != 3 || got[0].pkt != 1 || got[1].pkt != 2 || got[2].pkt != 3 {
		t.Errorf("popped %+v, want pkt 1, 2, 3", got)
	}
	if q.now != 30 {
		t.Errorf("now = %d, want 30", q.now)
	}
}

// TestNestedScheduling: an event pushed a delay after the clock while the
// queue drains, as packetsim's handlers push the next hop or the ack, fires
// at that later time.
func TestNestedScheduling(t *testing.T) {
	var q queue
	q.push(event{at: 10, kind: evStart})
	var fired []Time
	for len(q.h) > 0 {
		if ev := q.pop(); ev.kind == evStart {
			q.push(event{at: q.now + 5, kind: evAck})
		}
		fired = append(fired, q.now)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired at %v, want [10 15]", fired)
	}
}

// TestNegativeDelayClamped: an event pushed a negative delay after the
// clock fires now, not in the past.
func TestNegativeDelayClamped(t *testing.T) {
	var q queue
	q.push(event{at: 100})
	q.pop()
	q.push(event{at: q.now - 50, pkt: 1})
	if ev := q.pop(); ev.pkt != 1 || ev.at != 100 || q.now != 100 {
		t.Errorf("negative delay popped pkt %d at %d, now %d; want pkt 1 at 100", ev.pkt, ev.at, q.now)
	}
}

// TestScheduleAtPastClamped: an event pushed for a time before the clock
// fires now, after the events already queued for this instant.
func TestScheduleAtPastClamped(t *testing.T) {
	var q queue
	q.push(event{at: 100, pkt: 0})
	q.push(event{at: 100, pkt: 1})
	if ev := q.pop(); ev.pkt != 0 || q.now != 100 {
		t.Fatalf("first pop: pkt %d, now %d", ev.pkt, q.now)
	}
	q.push(event{at: 10, pkt: 2})
	got := drain(&q)
	if len(got) != 2 || got[0].pkt != 1 || got[1].pkt != 2 || got[1].at != 100 || q.now != 100 {
		t.Errorf("after a past push: %+v, now %d; want pkt 1 then pkt 2, both at 100", got, q.now)
	}
}

// Property: pops come in non-decreasing time order whatever the push
// order, including pushes made between pops, the last pop leaves the clock
// at the latest time pushed, and every pop is counted.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q queue
		n := 50 + rng.Intn(100)
		var latest Time
		for i := 0; i < n; i++ {
			at := Time(rng.Int63n(1_000_000))
			latest = max(latest, at)
			q.push(event{at: at})
		}
		prev, popped := Time(0), uint64(0)
		for len(q.h) > 0 {
			ev := q.pop()
			popped++
			if ev.at < prev || ev.at != q.now {
				return false
			}
			prev = ev.at
			if rng.Intn(4) == 0 { // an event scheduling a later one
				at := q.now + Time(rng.Int63n(1000))
				latest = max(latest, at)
				q.push(event{at: at})
			}
		}
		return q.now == latest && q.n == popped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: draining the queue leaves the clock at the latest time pushed.
func TestPropertyFinalClock(t *testing.T) {
	f := func(times []uint32) bool {
		var q queue
		var latest Time
		for _, raw := range times {
			at := Time(raw % 1_000_000)
			latest = max(latest, at)
			q.push(event{at: at})
		}
		drain(&q)
		return q.now == latest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStepsCounter: every pop is counted.
func TestStepsCounter(t *testing.T) {
	var q queue
	for i := 0; i < 7; i++ {
		q.push(event{at: Time(i)})
	}
	drain(&q)
	if q.n != 7 {
		t.Errorf("popped %d events, want 7", q.n)
	}
}

// TestQueueReset: reset empties the queue, returns the clock and the
// counters to 0 and keeps the backing array, so a refilled queue of the
// same size does not grow it again.
func TestQueueReset(t *testing.T) {
	var q queue
	for i := 0; i < 7; i++ {
		q.push(event{at: Time(i)})
	}
	q.pop()
	q.reset()
	if len(q.h) != 0 || q.now != 0 || q.seq != 0 || q.n != 0 {
		t.Fatalf("after reset: %d queued, now %d, seq %d, popped %d", len(q.h), q.now, q.seq, q.n)
	}
	if cap(q.h) < 7 {
		t.Fatalf("reset dropped the backing array: cap %d", cap(q.h))
	}
	allocs := testing.AllocsPerRun(5, func() {
		q.reset()
		for i := 0; i < 7; i++ {
			q.push(event{at: Time(7 - i)})
		}
		for len(q.h) > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("refilling a reset queue allocates %v times", allocs)
	}
	if q.n != 7 || q.now != 7 {
		t.Errorf("popped %d events, clock %d; want 7 and 7", q.n, q.now)
	}
}
