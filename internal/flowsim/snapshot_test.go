package flowsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"dard/internal/topology"
	"dard/internal/workload"
)

// steadySnapConfig is snapFuzzConfig's run with its arrivals streamed
// from an OpenPoisson source instead of a flow list: random pattern,
// 2 flows/s per host, seeded seed; duration <= 0 leaves the stream
// unbounded, so the run ends at MaxTime.
func steadySnapConfig(t testing.TB, ft *topology.FatTree, seed int64, duration float64) Config {
	t.Helper()
	cfg := snapFuzzConfig(ft, ft.Graph())
	cfg.Arrivals = openArrivals(t, ft, seed, duration)
	cfg.MaxTime = 4
	return cfg
}

func steadyWorkload(ft *topology.FatTree, seed int64, duration float64) (*workload.Layout, workload.Config) {
	l := workload.NewLayout(ft)
	return l, workload.Config{
		Pattern:     workload.Random{L: l},
		RatePerHost: 2,
		Duration:    duration,
		SizeBytes:   8 << 20,
		Seed:        seed,
	}
}

func openArrivals(t testing.TB, ft *topology.FatTree, seed int64, duration float64) *workload.OpenPoisson {
	t.Helper()
	op, err := workload.NewOpenPoisson(steadyWorkload(ft, seed, duration))
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// pausedSnapshot runs a fresh Sim built from cfg for pauseAt events and
// returns it with its snapshot.
func pausedSnapshot(t testing.TB, cfg Config, pauseAt int64) (*Sim, []byte) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.PauseAfter(pauseAt)
	if _, err := sim.Run(); err != ErrPaused {
		t.Fatalf("pause at %d: %v", pauseAt, err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sim, blob
}

// finalSnapshot runs sim to the end and returns its snapshot, which
// covers every flow's outcome, the clock and the RNG position.
func finalSnapshot(t testing.TB, sim *Sim) []byte {
	t.Helper()
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	blob, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reCRC returns blob with its CRC-32 trailer recomputed, so an edit
// reaches Restore's semantic checks instead of the frame check.
func reCRC(blob []byte) []byte {
	out := bytes.Clone(blob)
	n := len(out) - 4
	binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	return out
}

// Header offsets: the 6-byte frame header, the section mark, then the
// clock, timer sequence and event count before the RNG draw count.
const drawsOffset = 6 + 1 + 3*8

// arrivedOffset returns the offset of the header's arrived count in a
// snapshot of sim: after the draw count come Core's three counters, the
// next probe time, started, the seed, the reference flag, the
// controller name and the link list.
func arrivedOffset(t testing.TB, sim *Sim, blob []byte) int {
	t.Helper()
	downs := 0
	for l := range sim.Topo().Graph().NumLinks() {
		if sim.LinkDown(topology.LinkID(l)) {
			downs++
		}
	}
	off := drawsOffset + 8 + 3*8 + 8 + 1 + 8 + 1 + 4 + len(sim.cfg.Controller.Name()) + 4 + 4 + 4*downs
	if got := binary.LittleEndian.Uint64(blob[off:]); got != uint64(sim.arrived) {
		t.Fatalf("arrived count at offset %d reads %d, the run has %d", off, got, sim.arrived)
	}
	return off
}

// TestSteadyRestoreReplaysArrivals: a streamed workload restores by
// replay. The snapshot of a paused steady run carries no source state;
// restoring it onto a freshly built source re-encodes to the same bytes
// and finishes exactly where the uninterrupted run does.
func TestSteadyRestoreReplaysArrivals(t *testing.T) {
	ft := testFatTree(t)
	orig, blob := pausedSnapshot(t, steadySnapConfig(t, ft, 42, 0), 137)
	if orig.arrived < 20 {
		t.Fatalf("only %d arrivals before the pause", orig.arrived)
	}
	want := finalSnapshot(t, orig)

	resumed, err := Restore(steadySnapConfig(t, ft, 42, 0), blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("restored steady run re-encodes differently")
	}
	if got := finalSnapshot(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed steady run ends elsewhere than the uninterrupted one")
	}
}

// TestSteadyRestoreRejectsMismatch: the replayed flows must be the
// recorded ones, so a snapshot refuses a source built differently (other
// seed, a window that closes before the recorded arrivals), while a
// bounded stream's snapshot resumes on a list of the stream's flows
// drained up front, since the two are the same flows.
func TestSteadyRestoreRejectsMismatch(t *testing.T) {
	ft := testFatTree(t)
	_, blob := pausedSnapshot(t, steadySnapConfig(t, ft, 42, 0), 137)
	for name, cfg := range map[string]Config{
		"other seed":   steadySnapConfig(t, ft, 43, 0),
		"short window": steadySnapConfig(t, ft, 42, 0.5),
		"no flows left": func() Config {
			c := snapFuzzConfig(ft, ft.Graph())
			c.Arrivals = workload.List(workload.Drain(c.Arrivals)[:3])
			return c
		}(),
	} {
		if _, err := Restore(cfg, blob); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
		}
	}

	orig, blob := pausedSnapshot(t, steadySnapConfig(t, ft, 42, 3), 137)
	want := finalSnapshot(t, orig)
	listed := steadySnapConfig(t, ft, 42, 3)
	listed.Arrivals = workload.List(workload.Drain(listed.Arrivals))
	resumed, err := Restore(listed, blob)
	if err != nil {
		t.Fatalf("bounded steady snapshot refused on the drained list: %v", err)
	}
	if got := finalSnapshot(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("steady snapshot resumed on the drained list ends elsewhere")
	}
}

// TestSteadyRestoreRejectsCorruptRecords edits the first flow record of
// a re-CRC'd steady snapshot: an arrival or size one ulp off, or another
// source host, no longer matches the replayed flow and is refused; the
// untouched blob restores.
func TestSteadyRestoreRejectsCorruptRecords(t *testing.T) {
	ft := testFatTree(t)
	sim, blob := pausedSnapshot(t, steadySnapConfig(t, ft, 5, 0), 61)
	rec := arrivedOffset(t, sim, blob) + 8 + 1 // past the count and the flows mark
	edit := func(at int, f func(uint64) uint64) []byte {
		out := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(out[at:], f(binary.LittleEndian.Uint64(out[at:])))
		return reCRC(out)
	}
	nextUp := func(v uint64) uint64 {
		return math.Float64bits(math.Nextafter(math.Float64frombits(v), math.Inf(1)))
	}
	nextDown := func(v uint64) uint64 {
		return math.Float64bits(math.Nextafter(math.Float64frombits(v), 0))
	}
	if _, err := Restore(steadySnapConfig(t, ft, 5, 0), reCRC(blob)); err != nil {
		t.Fatalf("untouched snapshot refused: %v", err)
	}
	hosts := sim.Topo().Hosts()
	for name, broken := range map[string][]byte{
		"arrival one ulp late":  edit(rec+24, nextUp),
		"arrival one ulp early": edit(rec+24, nextDown),
		"size one ulp larger":   edit(rec+16, nextUp),
		"other source host": edit(rec, func(v uint64) uint64 {
			if v == uint64(hosts[0]) {
				return uint64(hosts[1])
			}
			return uint64(hosts[0])
		}),
		"source out of range": edit(rec, func(uint64) uint64 { return 1 << 40 }),
	} {
		if _, err := Restore(steadySnapConfig(t, ft, 5, 0), broken); err == nil {
			t.Errorf("%s: restore accepted the snapshot", name)
		}
	}
}

// TestRestoreRefusesRandDrawsAboveCap: Restore replays the RNG draw by
// draw, so a re-CRC'd header claiming more than MaxRandDraws is refused
// with ErrRandDraws before any replay (2^62 would otherwise never
// return), and Snapshot will not write a run past the cap.
func TestRestoreRefusesRandDrawsAboveCap(t *testing.T) {
	ft := testFatTree(t)
	_, blob := pausedSnapshot(t, snapFuzzConfig(ft, ft.Graph()), 61)
	for _, draws := range []uint64{MaxRandDraws + 1, 1 << 26, 1 << 62, math.MaxUint64} {
		out := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(out[drawsOffset:], draws)
		_, err := Restore(snapFuzzConfig(ft, ft.Graph()), reCRC(out))
		if !errors.Is(err, ErrRandDraws) {
			t.Errorf("%d draws: err %v, want ErrRandDraws", draws, err)
		}
	}
	if _, err := Restore(snapFuzzConfig(ft, ft.Graph()), reCRC(blob)); err != nil {
		t.Fatalf("untouched snapshot refused: %v", err)
	}

	sim, err := New(snapFuzzConfig(ft, ft.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	sim.ReplayRand(MaxRandDraws + 1)
	if _, err := sim.Snapshot(); !errors.Is(err, ErrRandDraws) || !errors.Is(err, ErrUnsnapshottable) {
		t.Fatalf("snapshot past the cap: err %v, want ErrUnsnapshottable and ErrRandDraws", err)
	}
}

// TestRestoreBoundsArrivedByBlob: a steady snapshot's arrived count is
// checked against the bytes its flow records could fill before the flow
// tables grow. A small blob claiming 2^20 arrivals is refused, and
// allocates no more than restoring the genuine blob.
func TestRestoreBoundsArrivedByBlob(t *testing.T) {
	ft := testFatTree(t)
	sim, blob := pausedSnapshot(t, steadySnapConfig(t, ft, 9, 0), 3)
	off := arrivedOffset(t, sim, blob)
	allocs := func(data []byte) (uint64, error) {
		cfg := steadySnapConfig(t, ft, 9, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Restore(cfg, data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	genuine, err := allocs(blob)
	if err != nil {
		t.Fatalf("genuine snapshot refused: %v", err)
	}
	for _, arrived := range []uint64{1 << 20, 1 << 40, math.MaxUint64} {
		out := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(out[off:], arrived)
		got, err := allocs(reCRC(out))
		if err == nil {
			t.Errorf("%d arrivals in a %d-byte blob accepted", arrived, len(blob))
		}
		if got > genuine+64<<10 {
			t.Errorf("%d arrivals: restore allocated %d B before refusing, the genuine blob %d B", arrived, got, genuine)
		}
	}
}
