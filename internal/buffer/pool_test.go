package buffer

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// fakeStore is a trivial backing store charging SSD costs.
type fakeStore struct {
	cfg     *sim.Config
	pages   map[page.ID][]byte
	fetches int
	writes  int
}

func newFakeStore(cfg *sim.Config, n int, pageSize int) *fakeStore {
	fs := &fakeStore{cfg: cfg, pages: make(map[page.ID][]byte)}
	for i := 0; i < n; i++ {
		d := make([]byte, pageSize)
		copy(d, fmt.Sprintf("page-%d", i))
		fs.pages[page.ID(i)] = d
	}
	return fs
}

func (fs *fakeStore) fetch(c *sim.Clock, id page.ID) ([]byte, error) {
	fs.fetches++
	d, ok := fs.pages[id]
	if !ok {
		return nil, fmt.Errorf("no page %d", id)
	}
	c.Advance(fs.cfg.SSDRead.Cost(len(d)))
	out := make([]byte, len(d))
	copy(out, d)
	return out, nil
}

func (fs *fakeStore) writeback(c *sim.Clock, id page.ID, data []byte) error {
	fs.writes++
	d := make([]byte, len(data))
	copy(d, data)
	fs.pages[id] = d
	c.Advance(fs.cfg.SSDWrite.Cost(len(data)))
	return nil
}

func TestPoolHitAndMiss(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 10, 512)
	p := NewPool(cfg, 4, fs.fetch, fs.writeback)
	c := sim.NewClock()

	d, err := p.Get(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(d, []byte("page-3")) {
		t.Fatalf("got %q", d[:8])
	}
	missCost := c.Now()

	c2 := sim.NewClock()
	if _, err := p.Get(c2, 3); err != nil {
		t.Fatal(err)
	}
	if !(c2.Now() < missCost/10) {
		t.Fatalf("hit (%v) should be ≫ cheaper than miss (%v)", c2.Now(), missCost)
	}
	if p.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v", p.HitRatio())
	}
	if fs.fetches != 1 {
		t.Fatalf("fetches = %d", fs.fetches)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 10, 512)
	p := NewPool(cfg, 2, fs.fetch, fs.writeback)
	c := sim.NewClock()

	if err := p.Mutate(c, 0, func(d []byte) error { d[100] = 0xAB; return nil }); err != nil {
		t.Fatal(err)
	}
	p.Get(c, 1)
	p.Get(c, 2) // evicts page 0 (dirty)
	if fs.writes != 1 {
		t.Fatalf("writebacks = %d, want 1", fs.writes)
	}
	if fs.pages[0][100] != 0xAB {
		t.Fatal("dirty eviction lost the mutation")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPoolGetReturnsCopy(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 2, 128)
	p := NewPool(cfg, 2, fs.fetch, nil)
	c := sim.NewClock()
	d, _ := p.Get(c, 0)
	d[0] = 0xFF
	d2, _ := p.Get(c, 0)
	if d2[0] == 0xFF {
		t.Fatal("Get leaked the cached frame")
	}
}

func TestPoolMissWithoutFetcher(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := NewPool(cfg, 2, nil, nil)
	if _, err := p.Get(sim.NewClock(), 1); err != ErrNoFetcher {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolInvalidate(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 128)
	p := NewPool(cfg, 4, fs.fetch, fs.writeback)
	c := sim.NewClock()
	p.Get(c, 0)
	p.Invalidate(0)
	if p.Contains(0) {
		t.Fatal("page survived invalidation")
	}
	p.Get(c, 1)
	p.Get(c, 2)
	p.InvalidateAll()
	if p.Len() != 0 {
		t.Fatal("InvalidateAll left pages")
	}
}

func TestPoolFlushAllAndDirtyIDs(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 128)
	p := NewPool(cfg, 4, fs.fetch, fs.writeback)
	c := sim.NewClock()
	p.Mutate(c, 0, func(d []byte) error { d[0] = 1; return nil })
	p.Mutate(c, 1, func(d []byte) error { d[0] = 2; return nil })
	p.Get(c, 2)
	ids := p.DirtyIDs()
	if len(ids) != 2 {
		t.Fatalf("dirty = %v", ids)
	}
	if err := p.FlushAll(c); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 2 {
		t.Fatalf("writes = %d", fs.writes)
	}
	if len(p.DirtyIDs()) != 0 {
		t.Fatal("pages still dirty after flush")
	}
}

func TestPoolInstall(t *testing.T) {
	cfg := sim.DefaultConfig()
	p := NewPool(cfg, 2, nil, nil)
	c := sim.NewClock()
	data := make([]byte, 64)
	data[0] = 7
	if err := p.Install(c, 9, data, true); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(c, 9)
	if err != nil || got[0] != 7 {
		t.Fatalf("installed page: %v %v", got[:1], err)
	}
	if len(p.DirtyIDs()) != 1 {
		t.Fatal("install-dirty not tracked")
	}
	// Install over existing updates in place.
	data2 := make([]byte, 64)
	data2[0] = 8
	p.Install(c, 9, data2, false)
	got, _ = p.Get(c, 9)
	if got[0] != 8 {
		t.Fatal("reinstall did not update")
	}
}

const rpBase = 0

func newRemote(cfg *sim.Config, capacity, pageSize int) (*RemotePool, *rdma.Node) {
	node := rdma.NewNode(cfg, "mem0", capacity*pageSize)
	return NewRemotePool(cfg, node, nil, rpBase, capacity, pageSize), node
}

func TestRemotePoolPutGet(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 4, 256)
	c := sim.NewClock()
	data := make([]byte, 256)
	copy(data, "remote page")
	if err := rp.Put(c, 5, data); err != nil {
		t.Fatal(err)
	}
	buf, ok, err := rp.Get(c, 5)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if !bytes.HasPrefix(buf, []byte("remote page")) {
		t.Fatalf("got %q", buf[:12])
	}
	if buf, ok, _ = rp.Get(c, 99); ok || buf != nil {
		t.Fatal("phantom page")
	}
}

func TestRemotePoolEvictsLRU(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 2, 128)
	c := sim.NewClock()
	d := make([]byte, 128)
	rp.Put(c, 1, d)
	rp.Put(c, 2, d)
	// Touch 1 so 2 becomes LRU.
	rp.Get(c, 1)
	rp.Put(c, 3, d) // evicts 2
	if rp.Contains(2) {
		t.Fatal("LRU victim still resident")
	}
	if !rp.Contains(1) || !rp.Contains(3) {
		t.Fatal("wrong eviction victim")
	}
	if rp.Len() != 2 {
		t.Fatalf("len = %d", rp.Len())
	}
}

func TestRemotePoolDrop(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 2, 128)
	c := sim.NewClock()
	rp.Put(c, 1, make([]byte, 128))
	rp.Drop(1)
	if rp.Contains(1) {
		t.Fatal("drop failed")
	}
	// Frame is reusable.
	rp.Put(c, 2, make([]byte, 128))
	rp.Put(c, 3, make([]byte, 128))
	if rp.Len() != 2 {
		t.Fatalf("len = %d after reuse", rp.Len())
	}
}

func TestRemotePoolSurvivesComputeRestartIDs(t *testing.T) {
	cfg := sim.DefaultConfig()
	rp, _ := newRemote(cfg, 4, 128)
	c := sim.NewClock()
	rp.Put(c, 7, make([]byte, 128))
	rp.Put(c, 8, make([]byte, 128))
	ids := rp.IDs()
	if len(ids) != 2 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestTwoTierPromotionAndDemotion(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 20, 256)
	rp, _ := newRemote(cfg, 10, 256)
	tt := NewTwoTier(cfg, 2, rp, fs.fetch)
	c := sim.NewClock()

	// First access: storage fetch, installed in both tiers.
	if _, err := tt.Get(c, 0); err != nil {
		t.Fatal(err)
	}
	l, r, s := tt.TierStats()
	if l != 0 || r != 0 || s != 1 {
		t.Fatalf("stats after cold read: %d/%d/%d", l, r, s)
	}
	// Second access: local hit.
	tt.Get(c, 0)
	l, _, _ = tt.TierStats()
	if l != 1 {
		t.Fatalf("local hits = %d", l)
	}
	// Fill local tier (cap 2) to evict page 0 to remote, then re-read:
	// must be a remote hit, not a storage fetch.
	tt.Get(c, 1)
	tt.Get(c, 2)
	tt.Get(c, 0)
	_, r, s = tt.TierStats()
	if r == 0 {
		t.Fatal("expected a remote-tier hit after local eviction")
	}
	if s != 3 { // pages 0,1,2 each fetched from storage exactly once
		t.Fatalf("storage fetches = %d, want 3", s)
	}
}

func TestTwoTierMutateThenReadBack(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 4, 256)
	rp, _ := newRemote(cfg, 4, 256)
	tt := NewTwoTier(cfg, 1, rp, fs.fetch)
	c := sim.NewClock()
	if err := tt.Mutate(c, 0, func(d []byte) error { d[9] = 0x55; return nil }); err != nil {
		t.Fatal(err)
	}
	// Force local eviction (cap 1) so the dirty page demotes to remote.
	tt.Get(c, 1)
	d, err := tt.Get(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d[9] != 0x55 {
		t.Fatal("mutation lost through demotion")
	}
}

func TestTwoTierCombinedHitRatio(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := newFakeStore(cfg, 8, 256)
	rp, _ := newRemote(cfg, 8, 256)
	tt := NewTwoTier(cfg, 2, rp, fs.fetch)
	c := sim.NewClock()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 8; i++ {
			tt.Get(c, page.ID(i))
		}
	}
	// After the first cold pass everything fits in remote memory.
	if hr := tt.CombinedHitRatio(); hr < 0.6 {
		t.Fatalf("combined hit ratio = %.2f", hr)
	}
	_, _, s := tt.TierStats()
	if s != 8 {
		t.Fatalf("storage fetches = %d, want 8 (cold only)", s)
	}
}
