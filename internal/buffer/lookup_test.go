package buffer

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
)

type poolCounters struct{ hits, misses, probeMisses, staleHits int64 }

func countersOf(p *Pool) poolCounters {
	return poolCounters{p.hits.Load(), p.misses.Load(), p.probeMisses.Load(), p.staleHits.Load()}
}

// lookupRig is a coherent pool over a fake store whose page 7 is missing,
// so fetching it fails.
type lookupRig struct {
	p   *Pool
	fs  *fakeStore
	dir *coherence.Directory
	c   *sim.Clock
}

func newLookupRig() lookupRig {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 8, 256)
	zeroHeaders(fs)
	delete(fs.pages, 7)
	dir := coherence.NewDirectory(cfg, "rig.coherence", coherence.ModeBump)
	p := NewPool(cfg, 3, fs.fetch, nil)
	p.SetCoherence(dir.Register("rig", p), pageStampOf)
	return lookupRig{p: p, fs: fs, dir: dir, c: sim.NewClock()}
}

// Lookup is one lock acquisition doing what Peek followed (on a miss) by
// Get does in two: over a random sequence of hits, misses, stale frames
// and failed fetches, both report the same outcome and bytes and leave the
// same counters and virtual clock.
func TestLookupMatchesPeekThenGet(t *testing.T) {
	a, b := newLookupRig(), newLookupRig()
	rng := rand.New(rand.NewSource(3))
	var hits, misses, stale, fetchErrs int
	for step := 0; step < 600; step++ {
		id := page.ID(rng.Intn(8))
		if rng.Intn(5) == 0 {
			// A remote commit: the store gets the new bytes and any cached
			// copy of the page goes stale.
			v := a.dir.Version(id) + 1
			for _, r := range []lookupRig{a, b} {
				if d, ok := r.fs.pages[id]; ok {
					stampPage(d, v)
				}
				r.dir.Publish(r.c, []coherence.PageStamp{{ID: id, Stamp: v}}, nil)
			}
			continue
		}
		staleBefore, before := a.p.StaleHits(), a.c.Now()
		var gotA []byte
		hitA, errA := a.p.Lookup(a.c, id, func(d []byte) error {
			gotA = append([]byte(nil), d...)
			return nil
		})
		gotB, hitB := b.p.Peek(b.c, id)
		var errB error
		if !hitB {
			gotB, errB = b.p.Get(b.c, id)
		}
		if hitA != hitB || (errA == nil) != (errB == nil) || !bytes.Equal(gotA, gotB) {
			t.Fatalf("step %d page %d: Lookup = (%v, %v), Peek+Get = (%v, %v), bytes equal %v",
				step, id, hitA, errA, hitB, errB, bytes.Equal(gotA, gotB))
		}
		if ca, cb := countersOf(a.p), countersOf(b.p); ca != cb {
			t.Fatalf("step %d: counters %+v, want %+v", step, ca, cb)
		}
		if a.c.Now() != b.c.Now() {
			t.Fatalf("step %d: clock %v, want %v", step, a.c.Now(), b.c.Now())
		}
		// The seed's charges: a hit is one DRAM touch, a miss a fetch
		// plus the touch, a failed fetch nothing.
		var want time.Duration
		switch {
		case errA != nil:
			fetchErrs++
		case hitA:
			hits++
			want = a.p.cfg.DRAM.Cost(256)
		default:
			misses++
			want = a.p.cfg.SSDRead.Cost(256) + a.p.cfg.DRAM.Cost(256)
		}
		if got := a.c.Now() - before; got != want {
			t.Fatalf("step %d: charged %v, want %v", step, got, want)
		}
		if a.p.StaleHits() > staleBefore {
			stale++
		}
	}
	if hits == 0 || misses == 0 || stale == 0 || fetchErrs == 0 {
		t.Fatalf("sequence did not cover every case: %d hits, %d misses, %d stale, %d fetch errors",
			hits, misses, stale, fetchErrs)
	}
}

// A warm Lookup hit reads the frame in place: no allocation.
func TestLookupHitZeroAlloc(t *testing.T) {
	r := newLookupRig()
	var sink byte
	read := func(d []byte) error { sink ^= d[100]; return nil }
	if _, err := r.p.Lookup(r.c, 1, read); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if hit, err := r.p.Lookup(r.c, 1, read); !hit || err != nil {
			t.Fatalf("warm lookup: hit %v, err %v", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Lookup hit allocated %v times per call", allocs)
	}
}

// A frame with a read in flight is never handed to another page: eviction
// passes over it, and once every frame is in use Put reports ErrNoFrame.
func TestRemotePoolPinnedFrameNotReused(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 2, 256)
	c := sim.NewClock()
	for id := page.ID(0); id < 2; id++ {
		if err := rp.Put(c, id, bytes.Repeat([]byte{byte(id + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	pinned := rp.index[0] // the LRU entry
	pinned.pins++
	if err := rp.Put(c, 2, bytes.Repeat([]byte{3}, 256)); err != nil {
		t.Fatal(err)
	}
	if !rp.Contains(0) || rp.Contains(1) {
		t.Fatal("eviction took the pinned frame instead of the unpinned one")
	}
	rp.index[2].pins++
	if err := rp.Put(c, 3, make([]byte, 256)); err != ErrNoFrame {
		t.Fatalf("Put with every frame pinned: %v, want ErrNoFrame", err)
	}
	// Dropping a pinned page unmaps it at once but frees its frame only
	// when the read lets go.
	rp.Drop(0)
	if len(rp.free) != 0 {
		t.Fatal("a pinned frame returned to the free list")
	}
	rp.mu.Lock()
	pinned.pins--
	rp.releaseLocked(pinned)
	rp.mu.Unlock()
	if len(rp.free) != 1 || rp.free[0] != pinned.addr {
		t.Fatalf("free list %v after the last read let go, want [%d]", rp.free, pinned.addr)
	}
}

// A miss's fill must not replace a frame cached since the miss: a writer
// that pulled the page and mutated it meanwhile would lose its update.
func TestTwoTierFillKeepsNewerFrame(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 256)
	zeroHeaders(fs)
	remote, _ := newRemote(cfg, 4, 256)
	tt := NewTwoTier(cfg, 2, remote, fs.fetch)
	tt.SetCoherence(coherence.NewDirectory(cfg, "lego.coherence", coherence.ModeBump), "lego", pageStampOf)
	c := sim.NewClock()
	read, err := tt.Get(c, 1) // what a concurrent reader's miss read (stamp 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.Mutate(c, 1, func(d []byte) error {
		copy(d[8:], "new")
		stampPage(d, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tt.Local.fill(c, 1, read); err != nil {
		t.Fatal(err)
	}
	d, ok := tt.Local.Peek(c, 1)
	if !ok || pageStampOf(d) != 5 || !bytes.HasPrefix(d[8:], []byte("new")) {
		t.Fatalf("fill replaced the written frame: stamp %d", pageStampOf(d))
	}
}

func benchmarkHit(b *testing.B, lookup bool) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 8192)
	p := NewPool(cfg, 4, fs.fetch, nil)
	c := sim.NewClock()
	if _, err := p.Get(c, 1); err != nil {
		b.Fatal(err)
	}
	var sink byte
	read := func(d []byte) error { sink ^= d[100]; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lookup {
			if hit, _ := p.Lookup(c, 1, read); !hit {
				b.Fatal("miss on a warm page")
			}
		} else {
			d, ok := p.Peek(c, 1)
			if !ok {
				b.Fatal("miss on a warm page")
			}
			sink ^= d[100]
		}
	}
}

func BenchmarkPoolLookupHit(b *testing.B) { benchmarkHit(b, true) }
func BenchmarkPoolPeekHit(b *testing.B)   { benchmarkHit(b, false) }
