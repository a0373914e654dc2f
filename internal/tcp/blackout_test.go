package tcp

import (
	"math"
	"testing"
)

// TestBlackoutRecovery drives one transfer through a link blackout on its
// only path: the connection must survive the outage on RTO retries alone
// and complete after the repair with the sequence space intact, without
// livelocking (bounded timeout count).
func TestBlackoutRecovery(t *testing.T) {
	cases := []struct {
		name     string
		failAt   float64
		repairAt float64
		maxRTOs  int
	}{
		// Shorter than MinRTO doubling gets going: one or two timeouts.
		{"brief", 0.15, 0.6, 5},
		// Long enough that backoff saturates at MaxRTO (2 s): the
		// doubling gaps 0.2+0.4+0.8+1.6 cover 3 s, then 2 s steps.
		{"past max backoff", 0.15, 6.0, 12},
		// Blackout hits during slow start, before RTT estimation
		// settles.
		{"during slow start", 0.01, 2.0, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 0)
			c := r.transfer(t, 1, 0, 8, 0, 4<<20)
			link := r.route(0, 8, 0)[2] // the path's aggr->core hop
			rtos := 0
			c.debugTrace = func(id int, now float64, event string, a, b int) {
				if event == "RTO" {
					rtos++
				}
			}
			r.n.K.After(tc.failAt, func() { r.n.SetLinkDown(link, true) })
			r.n.K.After(tc.repairAt, func() { r.n.SetLinkDown(link, false) })
			c.Start()
			r.n.K.Run(60)
			if !c.Done() {
				t.Fatal("transfer did not recover after the repair")
			}
			// 4 MB cannot fit before the failure, so completion proves
			// post-repair recovery.
			if c.TransferTime() < tc.repairAt-0.01 {
				t.Errorf("finished at %g s, before the repair at %g s",
					c.TransferTime(), tc.repairAt)
			}
			if got := c.State().SndUna; got != c.TotalSegs() {
				t.Errorf("sequence space torn: SndUna %d, want %d", got, c.TotalSegs())
			}
			if r.n.FailDrops(link) == 0 {
				t.Error("blackout dropped no packets on the failed link")
			}
			if rtos == 0 {
				t.Error("no RTO fired during the blackout")
			}
			if rtos > tc.maxRTOs {
				t.Errorf("%d RTOs for a %g s blackout, want <= %d (livelock?)",
					rtos, tc.repairAt-tc.failAt, tc.maxRTOs)
			}
		})
	}
}

// TestBlackoutRTOBackoff pins the timeout schedule during a long
// blackout: consecutive RTO gaps never shrink, never more than double,
// and saturate at MaxRTO.
func TestBlackoutRTOBackoff(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 8<<20)
	link := r.route(0, 8, 0)[2]
	var rtoTimes []float64
	c.debugTrace = func(id int, now float64, event string, a, b int) {
		if event == "RTO" {
			rtoTimes = append(rtoTimes, now)
		}
	}
	r.n.K.After(0.5, func() { r.n.SetLinkDown(link, true) })
	r.n.K.After(8.0, func() { r.n.SetLinkDown(link, false) })
	c.Start()
	r.n.K.Run(60)
	if !c.Done() {
		t.Fatal("transfer did not recover after the repair")
	}
	var in []float64
	for _, ts := range rtoTimes {
		if ts > 0.5 && ts < 8.0 {
			in = append(in, ts)
		}
	}
	if len(in) < 4 {
		t.Fatalf("only %d RTOs during a 7.5 s blackout, want >= 4", len(in))
	}
	const tol = 1e-9
	capped := false
	for i := 2; i < len(in); i++ {
		prev := in[i-1] - in[i-2]
		gap := in[i] - in[i-1]
		if gap < prev-tol {
			t.Errorf("RTO gap shrank: %g after %g", gap, prev)
		}
		if gap > math.Min(2*prev, 2.0)+tol {
			t.Errorf("RTO gap %g jumped past min(2*%g, MaxRTO)", gap, prev)
		}
		if gap > 2.0-tol {
			capped = true
		}
	}
	if !capped {
		t.Error("backoff never reached MaxRTO during a 7.5 s blackout")
	}
}
