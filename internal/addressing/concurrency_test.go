package addressing

import (
	"sync"
	"testing"

	"dard/internal/topology"
)

// A Plan is built once per topology and then shared by every concurrent
// scenario; with -race this verifies that all of its read paths —
// address lookups, routing tables, path-address resolution, registry
// queries, and flow-table rendering — are safe from many goroutines.
func TestPlanConcurrentReads(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(ft)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(plan)
	hosts := ft.Hosts()
	names := reg.HostNames()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src := hosts[(w+i)%len(hosts)]
				dst := hosts[(w*5+i*3)%len(hosts)]
				if addrs := plan.AddressesOf(src); len(addrs) == 0 {
					t.Error("host without addresses")
					return
				}
				if src != dst {
					ps := ft.PathSet(ft.ToROf(src), ft.ToROf(dst))
					if _, _, err := plan.PathAddresses(src, dst, ps, (w+i)%ps.Len()); err != nil {
						t.Error(err)
						return
					}
				}
				if tables := plan.TablesOf(ft.ToROf(src)); tables == nil {
					t.Error("ToR without tables")
					return
				}
				name := names[(w*3+i)%len(names)]
				if _, _, err := reg.Resolve(name); err != nil {
					t.Error(err)
					return
				}
				addrs := plan.AddressesOf(dst)
				if _, ok := reg.ReverseLookup(addrs[(w+i)%len(addrs)]); !ok {
					t.Error("reverse lookup failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFlowTableProgramsConcurrent renders the switch initialization
// programs from many goroutines — the NOX-style one-time setup that the
// concurrent sweeps may trigger per topology.
func TestFlowTableProgramsConcurrent(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(ft)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				progs := plan.FlowTablePrograms()
				if len(progs) == 0 {
					t.Error("no flow table programs")
					return
				}
				if plan.TotalRules() == 0 {
					t.Error("no rules")
					return
				}
			}
		}()
	}
	wg.Wait()
}
