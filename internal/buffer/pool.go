// Package buffer implements the buffer pools used across the engines: a
// local in-DRAM LRU pool, an RDMA-backed remote pool hosted on a memory
// node, and the LegoBase two-tier combination (local LRU in front of a
// remote-memory LRU, §3.1). All tiers can subscribe to a per-engine
// coherence.Directory: frames then carry the commit stamp of their bytes
// and every hit is validated against the directory version, so a copy
// cached before a remote commit is never served after the commit's
// durability point.
package buffer

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
)

// Fetcher loads a page's bytes on a miss (e.g. from a storage node),
// charging the caller's clock.
type Fetcher func(c *sim.Clock, id page.ID) ([]byte, error)

// Writeback persists a dirty page on eviction.
type Writeback func(c *sim.Clock, id page.ID, data []byte) error

// StampFunc extracts the commit stamp carried by page bytes (page-header
// LSN for heap pages). Coherence validation compares it against the
// directory version.
type StampFunc func(data []byte) uint64

// ErrNoFetcher is returned when a miss occurs and no fetcher is set.
var ErrNoFetcher = errors.New("buffer: miss with no fetcher")

type frame struct {
	id    page.ID
	data  []byte
	dirty bool
	// stamp is the commit stamp of the cached bytes; a frame whose stamp
	// trails the directory version is stale and never served.
	stamp uint64
}

// Pool is a local LRU page cache. All access goes through View/Lookup (and
// their copying wrappers Peek/Get) or Mutate under the pool lock; DRAM
// access cost is charged per touch.
type Pool struct {
	cfg       *sim.Config
	capacity  int
	fetch     Fetcher
	writeback Writeback

	coh     *coherence.Handle
	stampOf StampFunc

	mu     sync.Mutex
	lru    *list.List // front = most recent
	frames map[page.ID]*list.Element

	hits        atomic.Int64
	misses      atomic.Int64
	probeMisses atomic.Int64
	staleHits   atomic.Int64
}

// NewPool creates a pool holding up to capacity pages.
func NewPool(cfg *sim.Config, capacity int, fetch Fetcher, writeback Writeback) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		cfg:       cfg,
		capacity:  capacity,
		fetch:     fetch,
		writeback: writeback,
		lru:       list.New(),
		frames:    make(map[page.ID]*list.Element),
	}
}

// SetCoherence subscribes the pool to a coherence directory: frames are
// stamped (via stampOf when the data carries its own stamp, else the
// directory version at fill time) and every hit is validated. Any frames
// already resident are noted with the directory.
func (p *Pool) SetCoherence(h *coherence.Handle, stampOf StampFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.coh = h
	p.stampOf = stampOf
	for id := range p.frames {
		h.Note(id)
	}
}

// Capacity reports the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Len reports the number of cached pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// HitRatio reports hits/(hits+misses) over demand accesses; probe misses
// (Peek/Contains-style lookups that never intended to load) are excluded
// so policies fed by the ratio are not skewed by probing.
func (p *Pool) HitRatio() float64 {
	h, m := p.hits.Load(), p.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// ProbeMisses reports lookups that missed without requesting a load.
func (p *Pool) ProbeMisses() int64 { return p.probeMisses.Load() }

// StaleHits reports cached frames rejected by coherence validation.
func (p *Pool) StaleHits() int64 { return p.staleHits.Load() }

// ResetStats clears the hit/miss/probe/stale counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.probeMisses.Store(0)
	p.staleHits.Store(0)
}

// removeLocked drops a frame and tells the directory.
func (p *Pool) removeLocked(e *list.Element) {
	f := e.Value.(*frame)
	p.lru.Remove(e)
	delete(p.frames, f.id)
	if p.coh != nil {
		p.coh.Forget(f.id)
	}
}

func (p *Pool) locked(c *sim.Clock, id page.ID, load bool) (*frame, error) {
	if e, ok := p.frames[id]; ok {
		f := e.Value.(*frame)
		if p.coh == nil || p.coh.Validate(id, f.stamp) {
			p.lru.MoveToFront(e)
			p.hits.Add(1)
			return f, nil
		}
		// The directory published a newer stamp: the cached copy is
		// stale. Drop it and fall through to the miss path.
		p.staleHits.Add(1)
		p.removeLocked(e)
	}
	if !load {
		// A probe, not a demand access: counted separately so HitRatio
		// (and any policy fed by it) reflects only loads.
		p.probeMisses.Add(1)
		return nil, nil
	}
	p.misses.Add(1)
	if p.fetch == nil {
		return nil, ErrNoFetcher
	}
	var floor uint64
	if p.coh != nil && p.stampOf == nil {
		floor = p.coh.Version(id)
	}
	data, err := p.fetch(c, id)
	if err != nil {
		return nil, err
	}
	f := &frame{id: id, data: data, stamp: floor}
	if p.stampOf != nil {
		f.stamp = p.stampOf(data)
	}
	if err := p.evictIfFullLocked(c); err != nil {
		return nil, err
	}
	p.frames[id] = p.lru.PushFront(f)
	if p.coh != nil {
		p.coh.Note(id)
	}
	return f, nil
}

func (p *Pool) evictIfFullLocked(c *sim.Clock) error {
	for p.lru.Len() >= p.capacity {
		e := p.lru.Back()
		if e == nil {
			return nil
		}
		f := e.Value.(*frame)
		if f.dirty && p.writeback != nil {
			if err := p.writeback(c, f.id, f.data); err != nil {
				// Requeue the failed victim at the MRU end: leaving it at
				// the back makes every subsequent miss retry the same
				// writeback, livelocking callers inside a storage fault
				// window. Rotating lets the next eviction pick a
				// different (possibly clean) victim.
				p.lru.MoveToFront(e)
				return err
			}
		}
		p.removeLocked(e)
	}
	return nil
}

// View runs fn on the bytes of a fresh cached copy of the page, if one is
// cached, and reports whether it was. A miss (absent, or stale under the
// coherence directory) has no fetch side effects and is counted as a
// probe, not a demand miss. fn runs under the pool lock on the frame
// itself: it must not modify or retain the bytes. fn's error is returned.
func (p *Pool) View(c *sim.Clock, id page.ID, fn func(data []byte) error) (bool, error) {
	return p.access(c, id, true, false, fn)
}

// Lookup runs fn on the page's bytes, fetching the page on miss, and
// reports whether the page was served from the cache. It is View followed
// by a load on miss, under one lock acquisition: counters (a miss counts
// as a probe miss and a demand miss) and virtual-clock charges are those
// of Peek followed by Get. fn must not modify or retain the bytes.
func (p *Pool) Lookup(c *sim.Clock, id page.ID, fn func(data []byte) error) (hit bool, err error) {
	return p.access(c, id, true, true, fn)
}

// access is the pool's one read path. probe first tries a validated hit
// without loading; load fetches on miss. A served page is charged one DRAM
// touch and handed to fn under the lock; hit reports a probe hit.
func (p *Pool) access(c *sim.Clock, id page.ID, probe, load bool, fn func([]byte) error) (hit bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var f *frame
	if probe {
		f, _ = p.locked(c, id, false)
		hit = f != nil
	}
	if f == nil && load {
		if f, err = p.locked(c, id, true); err != nil {
			return false, err
		}
	}
	if f == nil {
		return false, nil
	}
	c.Advance(p.cfg.DRAM.Cost(len(f.data)))
	return hit, fn(f.data)
}

// copyInto returns a View/Lookup callback that copies the page out.
func copyInto(out *[]byte) func([]byte) error {
	return func(data []byte) error {
		*out = append([]byte(nil), data...)
		return nil
	}
}

// Get returns a copy of the page bytes, fetching on miss.
func (p *Pool) Get(c *sim.Clock, id page.ID) ([]byte, error) {
	var out []byte
	if _, err := p.access(c, id, false, true, copyInto(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// Peek returns a copy of the page bytes if a fresh copy is cached; it is
// View with a copying callback.
func (p *Pool) Peek(c *sim.Clock, id page.ID) ([]byte, bool) {
	var out []byte
	ok, _ := p.View(c, id, copyInto(&out))
	return out, ok
}

// Contains reports whether the page is cached (no fetch, no LRU effect on
// miss, no counter effect).
func (p *Pool) Contains(id page.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

// Mutate applies fn to the cached page under the pool lock, fetching on
// miss, and marks the page dirty. When the pool is coherent and the data
// carries its own stamp, the frame is re-stamped from the mutated bytes so
// a commit-applying writer keeps its own frame fresh across the publish.
func (p *Pool) Mutate(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.locked(c, id, true)
	if err != nil {
		return err
	}
	c.Advance(p.cfg.DRAM.Cost(len(f.data)))
	if err := fn(f.data); err != nil {
		return err
	}
	f.dirty = true
	if p.stampOf != nil {
		if s := p.stampOf(f.data); s > f.stamp {
			f.stamp = s
		}
	}
	return nil
}

// Install inserts page bytes directly (e.g. a freshly created page),
// marking it dirty if requested.
func (p *Pool) Install(c *sim.Clock, id page.ID, data []byte, dirty bool) error {
	return p.install(c, id, data, dirty, false)
}

// fill caches clean page bytes read from a lower tier on a miss. A frame
// cached since the miss — by a concurrent miss, or by a writer that pulled
// the page and mutated it — is kept unless the read bytes carry a newer
// stamp: replacing it would silently drop the writer's update.
func (p *Pool) fill(c *sim.Clock, id page.ID, data []byte) error {
	return p.install(c, id, data, false, true)
}

func (p *Pool) install(c *sim.Clock, id page.ID, data []byte, dirty, keepNewer bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	stamp := p.installStamp(id, data)
	if e, ok := p.frames[id]; ok {
		f := e.Value.(*frame)
		if keepNewer && stamp <= f.stamp {
			return nil
		}
		f.data = data
		f.dirty = f.dirty || dirty
		f.stamp = stamp
		p.lru.MoveToFront(e)
		return nil
	}
	if err := p.evictIfFullLocked(c); err != nil {
		return err
	}
	f := &frame{id: id, data: data, dirty: dirty, stamp: stamp}
	p.frames[id] = p.lru.PushFront(f)
	if p.coh != nil {
		p.coh.Note(id)
	}
	return nil
}

func (p *Pool) installStamp(id page.ID, data []byte) uint64 {
	if p.stampOf != nil {
		return p.stampOf(data)
	}
	if p.coh != nil {
		return p.coh.Version(id)
	}
	return 0
}

// Invalidate drops a page without writeback (coherence message from a
// remote writer).
func (p *Pool) Invalidate(id page.ID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.frames[id]; ok {
		p.removeLocked(e)
	}
}

// InvalidateAll empties the pool without writeback (crash simulation).
func (p *Pool) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.coh != nil {
		for id := range p.frames {
			p.coh.Forget(id)
		}
	}
	p.lru.Init()
	p.frames = make(map[page.ID]*list.Element)
}

// FlushAll writes back every dirty page. A failed writeback keeps that
// page dirty (so the next checkpoint retries it) and flushing continues
// with the remaining pages; all failures are aggregated into the returned
// error so a checkpointer can tell exactly what remains unflushed.
func (p *Pool) FlushAll(c *sim.Clock) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for e := p.lru.Front(); e != nil; e = e.Next() {
		f := e.Value.(*frame)
		if !f.dirty {
			continue
		}
		if p.writeback != nil {
			if err := p.writeback(c, f.id, f.data); err != nil {
				errs = append(errs, fmt.Errorf("page %d: %w", f.id, err))
				continue
			}
		}
		f.dirty = false
	}
	return errors.Join(errs...)
}

// DirtyIDs returns the IDs of dirty pages (checkpointing support).
func (p *Pool) DirtyIDs() []page.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []page.ID
	for e := p.lru.Front(); e != nil; e = e.Next() {
		if f := e.Value.(*frame); f.dirty {
			out = append(out, f.id)
		}
	}
	return out
}

// RemotePool is a page cache hosted in a disaggregated memory node and
// accessed with one-sided RDMA. It is the "remote memory pool" tier of
// LegoBase and the elastic shared buffer of PolarDB Serverless.
type RemotePool struct {
	cfg      *sim.Config
	qp       *rdma.QP
	pageSize int
	capacity int

	coh     *coherence.Handle
	stampOf StampFunc

	mu    sync.Mutex
	lru   *list.List // of page.ID; front = most recent
	index map[page.ID]*remoteEntry
	free  []uint64 // free region addresses

	staleHits atomic.Int64
}

type remoteEntry struct {
	addr uint64
	// stamp is the commit stamp of the bytes last written to the frame.
	stamp uint64
	elem  *list.Element
	// pins counts one-sided reads in flight from the frame and busy marks
	// a write in flight to it: a busy entry is never served, and the frame
	// is not reused while either is set.
	pins int
	busy bool
	// dropped marks an entry unmapped while in use; its frame returns to
	// the free list when the last user lets go.
	dropped bool
}

// ErrNoFrame is returned by RemotePool.Put when every frame is in use by
// an in-flight transfer.
var ErrNoFrame = errors.New("buffer: every remote frame is in use")

// NewRemotePool carves capacity page frames out of the node's registered
// memory starting at base.
func NewRemotePool(cfg *sim.Config, node *rdma.Node, stats *rdma.Stats, base uint64, capacity, pageSize int) *RemotePool {
	rp := &RemotePool{
		cfg:      cfg,
		qp:       rdma.Connect(cfg, node, stats),
		pageSize: pageSize,
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[page.ID]*remoteEntry),
	}
	for i := capacity - 1; i >= 0; i-- {
		rp.free = append(rp.free, base+uint64(i*pageSize))
	}
	return rp
}

// SetCoherence subscribes the remote pool to a coherence directory;
// entries are stamped from the page bytes on Put and validated on Get.
func (r *RemotePool) SetCoherence(h *coherence.Handle, stampOf StampFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.coh = h
	r.stampOf = stampOf
	for id := range r.index {
		h.Note(id)
	}
}

// Capacity reports the frame count.
func (r *RemotePool) Capacity() int { return r.capacity }

// Len reports resident pages.
func (r *RemotePool) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}

// StaleHits reports resident entries rejected by coherence validation.
func (r *RemotePool) StaleHits() int64 { return r.staleHits.Load() }

// Contains reports residency without RDMA traffic (the compute node keeps
// the directory locally; PolarDB Serverless keeps it on the memory node's
// control plane, which we fold into the directory lookup).
func (r *RemotePool) Contains(id page.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.index[id]
	return ok
}

// dropLocked unmaps an entry; its frame is freed once no transfer uses it.
func (r *RemotePool) dropLocked(id page.ID, e *remoteEntry) {
	r.lru.Remove(e.elem)
	delete(r.index, id)
	e.dropped = true
	r.releaseLocked(e)
	if r.coh != nil {
		r.coh.Forget(id)
	}
}

// releaseLocked returns a dropped entry's frame to the free list once no
// read or write is in flight on it.
func (r *RemotePool) releaseLocked(e *remoteEntry) {
	if e.dropped && e.pins == 0 && !e.busy {
		r.free = append(r.free, e.addr)
	}
}

// frameLocked takes a free frame, or evicts the least recently used entry
// with no transfer in flight. Evicted pages are simply dropped: the remote
// pool caches pages that are durable elsewhere (storage tier), like
// LegoBase's remote memory.
func (r *RemotePool) frameLocked() (uint64, error) {
	if n := len(r.free); n > 0 {
		addr := r.free[n-1]
		r.free = r.free[:n-1]
		return addr, nil
	}
	for el := r.lru.Back(); el != nil; el = el.Prev() {
		victim := el.Value.(page.ID)
		ve := r.index[victim]
		if ve.pins > 0 || ve.busy {
			continue
		}
		r.lru.Remove(el)
		delete(r.index, victim)
		if r.coh != nil {
			r.coh.Forget(victim)
		}
		return ve.addr, nil
	}
	return 0, ErrNoFrame
}

// Get reads the page into a new buffer via one-sided RDMA; a miss
// allocates nothing. Returns false on miss — including a coherence miss,
// where the resident copy's stamp trails the directory version and the
// entry is dropped instead of served, and an entry whose bytes are still
// being written. The frame is pinned for the read, so eviction cannot hand
// it to another page while it is in flight.
func (r *RemotePool) Get(c *sim.Clock, id page.ID) ([]byte, bool, error) {
	r.mu.Lock()
	e, ok := r.index[id]
	if ok && e.busy {
		ok = false
	}
	if ok && r.coh != nil && !r.coh.Validate(id, e.stamp) {
		r.staleHits.Add(1)
		r.dropLocked(id, e)
		ok = false
	}
	if !ok {
		r.mu.Unlock()
		return nil, false, nil
	}
	r.lru.MoveToFront(e.elem)
	e.pins++
	r.mu.Unlock()
	buf := make([]byte, r.pageSize)
	err := r.qp.Read(c, e.addr, buf)
	r.mu.Lock()
	e.pins--
	r.releaseLocked(e)
	r.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// Put writes the page to remote memory, evicting the LRU page if needed.
// The entry is stamped from the page bytes, so demoting an old copy after
// a newer commit published leaves the entry stale (caught on Get) rather
// than masking the newer version. Readers never see the frame mid-write:
// the entry is busy until the write lands, and only then does it carry the
// new bytes' stamp. A frame with reads in flight is never overwritten; the
// page moves to a fresh frame instead.
func (r *RemotePool) Put(c *sim.Clock, id page.ID, data []byte) error {
	var stamp uint64
	if r.stampOf != nil {
		stamp = r.stampOf(data)
	}
	r.mu.Lock()
	e, ok := r.index[id]
	if ok && (e.pins > 0 || e.busy) {
		r.dropLocked(id, e)
		ok = false
	}
	if ok {
		r.lru.MoveToFront(e.elem)
	} else {
		addr, err := r.frameLocked()
		if err != nil {
			r.mu.Unlock()
			return err
		}
		e = &remoteEntry{addr: addr}
		e.elem = r.lru.PushFront(id)
		r.index[id] = e
		if r.coh != nil {
			r.coh.Note(id)
		}
	}
	e.busy = true
	r.mu.Unlock()
	err := r.qp.Write(c, e.addr, data[:r.pageSize])
	r.mu.Lock()
	defer r.mu.Unlock()
	e.busy = false
	switch {
	case e.dropped:
		r.releaseLocked(e)
	case err != nil:
		// The frame holds an old, torn or evicted victim's bytes: unmap
		// it so readers miss to the authoritative tier.
		r.dropLocked(id, e)
	default:
		e.stamp = stamp
	}
	return err
}

// Drop removes a page from the remote pool (invalidation).
func (r *RemotePool) Drop(id page.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.index[id]; ok {
		r.dropLocked(id, e)
	}
}

// Invalidate implements coherence.Tier.
func (r *RemotePool) Invalidate(id page.ID) { r.Drop(id) }

// IDs returns the resident page IDs (used by recovery: a rebooted compute
// node can repopulate from remote memory instead of storage).
func (r *RemotePool) IDs() []page.ID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]page.ID, 0, len(r.index))
	for id := range r.index {
		out = append(out, id)
	}
	return out
}

// TwoTier is LegoBase's two-level cache: a small compute-local LRU backed
// by a large remote-memory LRU, backed by the storage fetcher. Pages
// evicted from the local tier are demoted to the remote tier.
type TwoTier struct {
	Local  *Pool
	Remote *RemotePool
	fetch  Fetcher

	localHits  atomic.Int64
	remoteHits atomic.Int64
	storage    atomic.Int64
}

// NewTwoTier wires the two tiers. Dirty local evictions are demoted into
// the remote pool via the pool's writeback hook.
func NewTwoTier(cfg *sim.Config, localCap int, remote *RemotePool, fetch Fetcher) *TwoTier {
	t := &TwoTier{Remote: remote, fetch: fetch}
	t.Local = NewPool(cfg, localCap, nil, func(c *sim.Clock, id page.ID, data []byte) error {
		return remote.Put(c, id, data)
	})
	return t
}

// SetCoherence registers both tiers with the directory (as name.local and
// name.remote) and wires stamp validation into each.
func (t *TwoTier) SetCoherence(d *coherence.Directory, name string, stampOf StampFunc) {
	t.Local.SetCoherence(d.Register(name+".local", t.Local), stampOf)
	t.Remote.SetCoherence(d.Register(name+".remote", t.Remote), stampOf)
}

// View runs fn on the page bytes, trying local, then remote, then
// storage. A local hit runs fn under the local pool's lock on the frame
// (the validated probe makes a hit atomic with validation); a page read
// from the remote tier or storage is handed to fn before the local tier
// installs it. fn must not modify or retain the bytes.
func (t *TwoTier) View(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	if ok, err := t.Local.View(c, id, fn); ok {
		t.localHits.Add(1)
		return err
	}
	buf, ok, err := t.Remote.Get(c, id)
	if err != nil {
		return err
	}
	if ok {
		t.remoteHits.Add(1)
	} else {
		t.storage.Add(1)
		if buf, err = t.fetch(c, id); err != nil {
			return err
		}
		if err := t.Remote.Put(c, id, buf); err != nil {
			return err
		}
	}
	ferr := fn(buf)
	if err := t.Local.fill(c, id, buf); err != nil {
		return err
	}
	return ferr
}

// Get returns a copy of the page bytes; it is View with a copying
// callback.
func (t *TwoTier) Get(c *sim.Clock, id page.ID) ([]byte, error) {
	var out []byte
	if err := t.View(c, id, copyInto(&out)); err != nil {
		return nil, err
	}
	return out, nil
}

// Mutate updates the page in the local tier (write path; demotion to the
// remote tier happens on eviction, and durability is the engine's log).
func (t *TwoTier) Mutate(c *sim.Clock, id page.ID, fn func(data []byte) error) error {
	if ok, _ := t.Local.View(c, id, noView); !ok {
		// Pull a fresh copy into the local tier first (a stale local
		// frame was just dropped by the probe's validation).
		if err := t.View(c, id, noView); err != nil {
			return err
		}
	}
	return t.Local.Mutate(c, id, fn)
}

func noView([]byte) error { return nil }

// TierStats reports (local hits, remote hits, storage fetches).
func (t *TwoTier) TierStats() (local, remote, storage int64) {
	return t.localHits.Load(), t.remoteHits.Load(), t.storage.Load()
}

// CombinedHitRatio reports the fraction of accesses served without
// touching storage.
func (t *TwoTier) CombinedHitRatio() float64 {
	l, r, s := t.TierStats()
	total := l + r + s
	if total == 0 {
		return 0
	}
	return float64(l+r) / float64(total)
}
