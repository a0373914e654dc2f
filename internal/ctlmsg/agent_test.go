// External test package: the agent is exercised on a live flowsim run,
// and flowsim imports ctlmsg (through sched).
package ctlmsg_test

import (
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// nullController keeps flowsim happy for agent tests.
type nullController struct{}

func (nullController) Name() string                           { return "null" }
func (nullController) InitialPath(sched.Host, sched.Flow) int { return 0 }

func testSim(t *testing.T) (*flowsim.Sim, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 5e9, Arrival: 0}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: nullController{}, Flows: flows, ElephantAge: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return s, ft
}

func TestAgentServesPortStates(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Probe an aggregation switch mid-run, after the single flow has
	// been classified as an elephant.
	done := false
	probeAt := func(sim *flowsim.Sim) {
		aggr := ft.AggrsOfPod(0)[0]
		agent, err := ctlmsg.NewSwitchAgent(sim, aggr)
		if err != nil {
			t.Error(err)
			return
		}
		qb, _ := ctlmsg.Query{SwitchID: uint32(aggr), SeqNo: 7}.MarshalBinary()
		rb, err := agent.Serve(nil, qb)
		if err != nil {
			t.Error(err)
			return
		}
		var reply ctlmsg.Reply
		if err := reply.UnmarshalBinary(rb); err != nil {
			t.Error(err)
			return
		}
		if reply.SeqNo != 7 {
			t.Errorf("SeqNo = %d", reply.SeqNo)
		}
		// p=4 aggr has 4 exit ports (2 up, 2 down).
		if len(reply.Ports) != 4 {
			t.Errorf("ports = %d, want 4", len(reply.Ports))
		}
		total := uint32(0)
		for _, p := range reply.Ports {
			if p.BandwidthMbps != 1000 {
				t.Errorf("port bandwidth = %d Mbps, want 1000", p.BandwidthMbps)
			}
			total += p.ElephantFlows
		}
		// The one elephant crosses this aggr (path 0 goes through it).
		if total != 1 {
			t.Errorf("aggr sees %d elephants, want 1", total)
		}
		done = true
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 5e9, Arrival: 0}}
	sim, err := flowsim.New(flowsim.Config{
		Net: ft, Controller: &probeController{probe: probeAt}, Flows: flows, ElephantAge: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("probe never ran")
	}
}

type probeController struct {
	probe func(*flowsim.Sim)
}

func (p *probeController) Name() string { return "probe" }
func (p *probeController) Start(s *flowsim.Sim) {
	s.After(1, func() { p.probe(s) })
}
func (p *probeController) InitialPath(sched.Host, sched.Flow) int { return 0 }

func TestAgentValidation(t *testing.T) {
	s, ft := testSim(t)
	if _, err := ctlmsg.NewSwitchAgent(s, ft.Hosts()[0]); err == nil {
		t.Error("host agent should fail")
	}
	if _, err := ctlmsg.NewSwitchAgent(s, topology.NodeID(99999)); err == nil {
		t.Error("unknown switch should fail")
	}
	agent, err := ctlmsg.NewSwitchAgent(s, ft.Cores()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Serve(nil, []byte("junk")); err == nil {
		t.Error("junk query should fail")
	}
	qb, _ := ctlmsg.Query{SwitchID: uint32(ft.Cores()[1])}.MarshalBinary()
	if _, err := agent.Serve(nil, qb); err == nil {
		t.Error("misdelivered query should fail")
	}
}
