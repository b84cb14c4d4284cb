package experiments

import "testing"

// TestAblationOverlapShape: overlap disciplines must never slow an
// iteration down (edges only relax the serial ordering), must materialise
// compute steps in the plan, and the rolling window's pooled packet-event
// bound must stay above the cross-step batching baseline from the
// batched-plans PR (25x at quick-Mixtral scale).
func TestAblationOverlapShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab, err := AblationOverlap(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want one per overlap discipline", len(tab.Rows))
	}
	none := parseF(t, tab.Rows[0][1])
	for _, r := range tab.Rows[1:] {
		if v := parseF(t, r[1]); v > none {
			t.Errorf("overlap %s iteration time %.3f above serial %.3f", r[0], v, none)
		}
		if parseF(t, r[6]) == 0 {
			t.Errorf("overlap %s plan has no compute steps", r[0])
		}
	}
	if parseF(t, tab.Rows[0][6]) != 0 {
		t.Error("serial accounting grew compute steps")
	}
	if bound := parseF(t, tab.Rows[2][7]); bound <= 25 {
		t.Errorf("rolling-window pooled event bound %.2fx not above the 25x batching baseline", bound)
	}
}
