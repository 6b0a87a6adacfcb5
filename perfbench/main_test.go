package main

import (
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/workload"
)

// testOps keeps the determinism tests short: a few checkpoint rounds per
// engine and a few thousand index operations per cell.
const testOps = 1_500

// digests runs one reduced round of every engine and index cell and
// returns each unit's virtual-result digest by name.
func digests(t *testing.T, seed int64, traced bool) map[string]uint64 {
	t.Helper()
	rc := &roundCtx{seed: seed, readback: !traced}
	if traced {
		rc.traced, rc.tr = true, &tracer{}
	}
	var units []*unitResult
	mixA := workload.YCSB{Keys: oltpKeys, ReadFrac: 0.5, Theta: 0.99, ValueSize: oltpValSize}
	for _, s := range append(append([]engineSpec(nil), logEngines...), memEngines...) {
		units = append(units, runEngine(rc, s, mixA, testOps))
	}
	for _, s := range indexes {
		for _, n := range []int{1, 8} {
			units = append(units, runIndexCell(rc, s, n, testOps))
		}
	}
	out := map[string]uint64{}
	for _, u := range units {
		if u.failed != 0 {
			t.Errorf("%s: %d failed checks: %v", u.name, u.failed, u.notes)
		}
		out[u.name] = u.digest()
	}
	return out
}

func TestDeterminism(t *testing.T) {
	a := digests(t, 7, false)
	b := digests(t, 7, false)
	c := digests(t, 8, false)
	traced := digests(t, 7, true)
	for name, d := range a {
		if b[name] != d {
			t.Errorf("%s: same seed gave different virtual results", name)
		}
		if c[name] == d {
			t.Errorf("%s: a different seed gave identical virtual results", name)
		}
		if traced[name] != d {
			t.Errorf("%s: traced round differs from the untraced one", name)
		}
	}
}

func TestQuantileInterpolatesPlateaus(t *testing.T) {
	xs := []time.Duration{1, 1, 1, 3, 3, 3, 3, 3}
	// Mid-ranks: value 1 at 1.5/8, value 3 at 5.5/8; 0.5 interpolates.
	want := 1 + 2*(0.5-1.5/8)/(4.0/8)
	if got := quantile(xs, 0.5); got != want {
		t.Fatalf("quantile = %v, want %v", got, want)
	}
	if got := quantile([]time.Duration{5, 5, 5}, 0.99); got != 5 {
		t.Fatalf("quantile of a constant = %v, want 5", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", modulePrefix + "rdma.NewMemory"}, "memclr"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", modulePrefix + "engine/aurora.(*Engine).Execute"}, "engine"},
		{[]string{modulePrefix + "index/race.(*Client).Get"}, "index"},
		{[]string{"main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
