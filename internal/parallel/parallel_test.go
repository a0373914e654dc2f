package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("auto worker count must be >= 1")
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		n := 100
		counts := make([]atomic.Int64, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachCollectsAllErrors(t *testing.T) {
	wantA := errors.New("cell 3 broke")
	wantB := errors.New("cell 7 broke")
	ran := make([]atomic.Int64, 10)
	err := ForEach(4, 10, func(i int) error {
		ran[i].Add(1)
		switch i {
		case 3:
			return wantA
		case 7:
			return wantB
		}
		return nil
	})
	if !errors.Is(err, wantA) || !errors.Is(err, wantB) {
		t.Fatalf("joined error missing a cell error: %v", err)
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Errorf("index %d did not run despite other cells failing", i)
		}
	}
	// Index order in the joined message, regardless of completion order.
	msg := err.Error()
	if strings.Index(msg, "cell 3") > strings.Index(msg, "cell 7") {
		t.Errorf("errors not joined in index order: %q", msg)
	}
}

func TestForEachZeroCells(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestSeedDeterministicAndKeyed(t *testing.T) {
	a := Seed(1, "fattree(p=8)/stride")
	if a != Seed(1, "fattree(p=8)/stride") {
		t.Error("seed derivation not deterministic")
	}
	if a == Seed(1, "fattree(p=8)/random") {
		t.Error("different keys should decorrelate")
	}
	if a == Seed(2, "fattree(p=8)/stride") {
		t.Error("different bases should decorrelate")
	}
	if Seed(0, "") == 0 {
		t.Error("derived seed must never be 0 (Scenario's default sentinel)")
	}
	// No collisions across a realistic grid of cell keys.
	seen := make(map[int64]string)
	for size := 0; size < 64; size++ {
		for _, pat := range []string{"random", "staggered", "stride"} {
			key := fmt.Sprintf("fattree(p=%d)/%s", size, pat)
			s := Seed(1, key)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: %q and %q -> %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
