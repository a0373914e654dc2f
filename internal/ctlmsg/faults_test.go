package ctlmsg

import (
	"math"
	"testing"

	"dard/internal/topology"
)

func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		f    Faults
		ok   bool
	}{
		{"zero value", Faults{}, true},
		{"typical", Faults{LossProb: 0.3, DupProb: 0.05, DelayS: 0.002, Seed: 7}, true},
		{"loss at one", Faults{LossProb: 1}, false},
		{"loss above one", Faults{LossProb: 1.5}, false},
		{"negative loss", Faults{LossProb: -0.1}, false},
		{"NaN loss", Faults{LossProb: math.NaN()}, false},
		{"dup at one", Faults{DupProb: 1}, false},
		{"NaN dup", Faults{DupProb: math.NaN()}, false},
		{"negative delay", Faults{DelayS: -1}, false},
		{"infinite delay", Faults{DelayS: math.Inf(1)}, false},
		{"NaN delay", Faults{DelayS: math.NaN()}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestFaultsEnabled(t *testing.T) {
	if (Faults{}).Enabled() || (Faults{Seed: 9}).Enabled() {
		t.Error("reliable channel reported as faulty")
	}
	for _, f := range []Faults{{LossProb: 0.1}, {DupProb: 0.1}, {DelayS: 0.001}} {
		if !f.Enabled() {
			t.Errorf("%+v should be enabled", f)
		}
	}
}

// idleState is the switch state of an idle fabric, what an engine
// reports before its first event: nominal capacities and no elephants.
type idleState struct{ *topology.FatTree }

func (s idleState) Topo() topology.Network                 { return s.FatTree }
func (idleState) ElephantsOnLink(topology.LinkID) int      { return 0 }
func (s idleState) LinkCapacity(l topology.LinkID) float64 { return s.Graph().Link(l).Capacity }
func (idleState) PortStamp(topology.NodeID) uint64         { return 0 }

// idleFabric returns the state of an idle p=4 fat-tree.
func idleFabric(t *testing.T) (idleState, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idleState{ft}, ft
}

// faultRig builds an agent over an idle fabric plus a marshaled query
// for it.
func faultRig(t *testing.T) (*SwitchAgent, []byte) {
	t.Helper()
	s, ft := idleFabric(t)
	aggr := ft.AggrsOfPod(0)[0]
	agent, err := NewSwitchAgent(s, aggr)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := (Query{SwitchID: uint32(aggr)}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return agent, qb
}

// exchangePattern runs n attempts through a fresh channel and returns
// the per-attempt ok outcomes plus the final stats.
func exchangePattern(t *testing.T, f Faults, monitorID uint64, switchID uint32, agent *SwitchAgent, qb []byte, n int) ([]bool, ChannelStats) {
	t.Helper()
	ch := NewChannel(f, monitorID, switchID)
	oks := make([]bool, n)
	for i := range oks {
		_, _, ok, err := ch.TryExchange(agent, qb)
		if err != nil {
			t.Fatal(err)
		}
		oks[i] = ok
	}
	return oks, ch.Stats()
}

// TestChannelDeterministicPerIdentity pins the channel RNG derivation:
// the same (seed, monitor, switch) identity replays the same fault
// pattern, and sibling channels get independent streams.
func TestChannelDeterministicPerIdentity(t *testing.T) {
	agent, qb := faultRig(t)
	f := Faults{LossProb: 0.4, DupProb: 0.2, Seed: 11}
	const n = 64
	a1, s1 := exchangePattern(t, f, 3, 20, agent, qb, n)
	a2, s2 := exchangePattern(t, f, 3, 20, agent, qb, n)
	if s1 != s2 {
		t.Fatalf("same identity diverged: %+v vs %+v", s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("attempt %d: same identity, different outcome", i)
		}
	}
	// A sibling channel (different switch) must see a different stream;
	// 64 attempts at 40% loss agreeing everywhere is astronomically
	// unlikely unless the streams are accidentally shared.
	b, _ := exchangePattern(t, f, 3, 21, agent, qb, n)
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("channels for different switches replay the same fault stream")
	}
}

// TestChannelByteAccounting checks the wire-byte ledger: a reliable
// exchange costs exactly query+reply, and with faults on, per-attempt
// wireBytes sum to the channel total with duplicates double-counted.
func TestChannelByteAccounting(t *testing.T) {
	agent, qb := faultRig(t)
	ch := NewChannel(Faults{}, 1, 1)
	rb, wire, ok, err := ch.TryExchange(agent, qb)
	if err != nil || !ok {
		t.Fatalf("reliable exchange failed: ok=%v err=%v", ok, err)
	}
	if want := len(qb) + len(rb); wire != want {
		t.Errorf("reliable exchange cost %d bytes, want %d", wire, want)
	}
	f := Faults{LossProb: 0.3, DupProb: 0.3, Seed: 5}
	lossy := NewChannel(f, 1, 1)
	total := 0
	for i := 0; i < 64; i++ {
		_, wire, _, err := lossy.TryExchange(agent, qb)
		if err != nil {
			t.Fatal(err)
		}
		if wire < len(qb) {
			t.Fatalf("attempt cost %d bytes, below the query size %d", wire, len(qb))
		}
		total += wire
	}
	st := lossy.Stats()
	if st.Bytes != total {
		t.Errorf("stats bytes %d != summed per-attempt bytes %d", st.Bytes, total)
	}
	if st.Attempts != 64 {
		t.Errorf("attempts = %d, want 64", st.Attempts)
	}
	if st.Lost == 0 || st.Dups == 0 {
		t.Errorf("64 attempts at 30%%/30%% rolled no faults: %+v", st)
	}
}

func TestBackoffDoubles(t *testing.T) {
	for attempt, want := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		got := Backoff(0.05, attempt)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Backoff(0.05, %d) = %g, want %g", attempt, got, want)
		}
	}
}

func TestAgentLinksStable(t *testing.T) {
	s, ft := idleFabric(t)
	aggr := ft.AggrsOfPod(0)[0]
	agent, err := NewSwitchAgent(s, aggr)
	if err != nil {
		t.Fatal(err)
	}
	links := agent.Links()
	if len(links) == 0 {
		t.Fatal("agent covers no links")
	}
	g := ft.Graph()
	for i, l := range g.Out(topology.NodeID(aggr)) {
		if links[i] != l {
			t.Fatalf("Links()[%d] = %d, want graph order %d", i, links[i], l)
		}
	}
}

// FuzzFaultsValidate: Validate must accept exactly the simulable
// configurations, and every accepted configuration must build a channel
// whose first rolls do not panic.
func FuzzFaultsValidate(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, int64(0))
	f.Add(0.3, 0.05, 0.002, int64(7))
	f.Add(1.0, 0.0, 0.0, int64(1))
	f.Add(-0.5, 2.0, -1.0, int64(-1))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), int64(42))
	f.Fuzz(func(t *testing.T, loss, dup, delay float64, seed int64) {
		cfg := Faults{LossProb: loss, DupProb: dup, DelayS: delay, Seed: seed}
		err := cfg.Validate()
		probOK := func(p float64) bool { return !math.IsNaN(p) && p >= 0 && p < 1 }
		wantOK := probOK(loss) && probOK(dup) &&
			!math.IsNaN(delay) && !math.IsInf(delay, 0) && delay >= 0
		if (err == nil) != wantOK {
			t.Fatalf("Validate(%+v) = %v, want ok=%v", cfg, err, wantOK)
		}
		if err != nil {
			return
		}
		ch := NewChannel(cfg, 1, 2)
		for i := 0; i < 4; i++ {
			ch.cross(10)
		}
		if st := ch.Stats(); st.Bytes < 40 {
			t.Fatalf("4 crossings of 10 bytes accounted only %d", st.Bytes)
		}
	})
}
