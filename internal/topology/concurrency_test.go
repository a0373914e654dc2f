package topology

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPathCacheConcurrent resolves many pairs of every family from
// several goroutines at once and checks each against a serial
// resolution on a second, independent construction. On dragonfly and
// DCell this races the per-pair entry cache of sourceRouted across
// distinct keys; run with -race it also checks that cache's locking.
func TestPathCacheConcurrent(t *testing.T) {
	nets := func() []Network {
		ft, err := NewFatTree(FatTreeConfig{P: 8})
		if err != nil {
			t.Fatal(err)
		}
		df, err := NewDragonfly(DragonflyConfig{D: 4, A: 3, P: 2})
		if err != nil {
			t.Fatal(err)
		}
		dc, err := NewDCell(DCellConfig{N: 3, Level: 1})
		if err != nil {
			t.Fatal(err)
		}
		return []Network{ft, df, dc}
	}
	// resolve returns every path's links of the pair, one after another.
	resolve := func(n Network, a, b NodeID) ([]LinkID, int) {
		ps := n.PathSet(a, b)
		var links []LinkID
		for i := 0; i < ps.Len(); i++ {
			links = ps.AppendLinks(i, links)
		}
		return links, ps.Len()
	}
	ref := nets()
	for k, net := range nets() {
		t.Run(net.Name(), func(t *testing.T) {
			tors := AttachSwitches(net)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						a := tors[(w+i)%len(tors)]
						b := tors[(w*7+i*3)%len(tors)]
						if a == b {
							continue
						}
						got, n := resolve(net, a, b)
						if n == 0 {
							t.Errorf("pair %d->%d: empty path set", a, b)
							return
						}
						want, _ := resolve(ref[k], a, b)
						if !slices.Equal(got, want) {
							t.Errorf("pair %d->%d: concurrent links %v, serial links %v", a, b, got, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestPathCacheSingleFlight hammers one cold pair of each non-tree
// family from many goroutines released at once: the pair's entry in
// the sourceRouted cache must build exactly once, every handle must
// share the one entry, and every handle must resolve identical links.
// Run with -race this also checks the entry's locking.
func TestPathCacheSingleFlight(t *testing.T) {
	df, err := NewDragonfly(DragonflyConfig{D: 4, A: 3, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := NewDCell(DCellConfig{N: 3, Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		net Network
		sr  *sourceRouted
	}{{df, df.sr}, {dc, dc.sr}} {
		t.Run(tc.net.Name(), func(t *testing.T) {
			var builds atomic.Int32
			build := tc.sr.build
			tc.sr.build = func(src, dst NodeID) ([][]LinkID, []string) {
				builds.Add(1)
				return build(src, dst)
			}
			tors := AttachSwitches(tc.net)
			src, dst := tors[0], tors[len(tors)-1]

			const workers = 32
			handles := make([]PathSet, workers)
			links := make([][]LinkID, workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					ps := tc.net.PathSet(src, dst)
					handles[w] = ps
					for i := 0; i < ps.Len(); i++ {
						links[w] = ps.AppendLinks(i, links[w])
					}
				}(w)
			}
			close(start)
			wg.Wait()

			if n := builds.Load(); n != 1 {
				t.Fatalf("pair built %d times, want 1", n)
			}
			if len(links[0]) == 0 {
				t.Fatal("cross pair resolved no links")
			}
			for w := 1; w < workers; w++ {
				if handles[w] != handles[0] {
					t.Fatalf("goroutine %d got handle %+v, goroutine 0 got %+v", w, handles[w], handles[0])
				}
				if !slices.Equal(links[w], links[0]) {
					t.Fatalf("goroutine %d resolved links %v, goroutine 0 resolved %v", w, links[w], links[0])
				}
			}
		})
	}
}
