// Package legobase implements the LegoBase architecture of §3.1: a
// cloud-native engine for memory disaggregation with (1) two-level cache
// management — a small compute-local LRU in front of a large remote-memory
// LRU — and (2) a two-tier ARIES protocol that checkpoints to remote
// memory frequently and to storage rarely, so a crashed compute node
// recovers from remote memory (fast) instead of replaying against storage
// (slow).
package legobase

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the LegoBase-style engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	// Tiers is the two-level cache (local LRU + remote-memory LRU).
	Tiers   *buffer.TwoTier
	MemNode *memnode.Pool
	ssd     *device.SSD
	log     *wal.Log
	locks   *txn.LockTable
	stats   engine.Stats

	// dir version-stamps both cache tiers (ModeBump: lazy validation). A
	// remote copy that missed an update goes stale at the commit publish
	// and is dropped on its next validated read, falling through to the
	// log-replaying storage fetch.
	dir *coherence.Directory

	// CheckpointRemoteEvery / CheckpointStorageEvery control the two
	// ARIES tiers (commit counts; 0 disables).
	CheckpointRemoteEvery  int
	CheckpointStorageEvery int

	// ckpt drives the storage (slow) tier's log lifecycle: it owns the
	// truncation horizon, below which the on-disk images are the only
	// source of history.
	ckpt *checkpoint.Coordinator

	mu sync.Mutex
	// disk is durable page storage.
	disk map[page.ID][]byte
	// remoteCkptLSN / storageCkptLSN are the two checkpoint horizons.
	remoteCkptLSN  wal.LSN
	storageCkptLSN wal.LSN
	durableLSN     wal.LSN
	commitCount    int
	nextTx         atomic.Uint64
	crashed        atomic.Bool
}

// New creates the engine: a local cache of localPages frames backed by a
// remote pool of remotePages frames backed by SSD storage.
func New(cfg *sim.Config, layout heap.Layout, localPages, remotePages int) *Engine {
	mn := memnode.New(cfg, "lego-mem", remotePages*layout.PageSize+1024)
	e := &Engine{
		cfg:                    cfg,
		layout:                 layout,
		MemNode:                mn,
		ssd:                    device.NewSSD(cfg, 32),
		log:                    wal.NewLog(),
		locks:                  txn.NewLockTable(),
		disk:                   make(map[page.ID][]byte),
		CheckpointRemoteEvery:  32,
		CheckpointStorageEvery: 512,
	}
	base, err := mn.Alloc(uint64(remotePages * layout.PageSize))
	if err != nil {
		panic("legobase: remote pool sizing bug: " + err.Error())
	}
	remote := buffer.NewRemotePool(cfg, mn.Node(), nil, base, remotePages, layout.PageSize)
	e.Tiers = buffer.NewTwoTier(cfg, localPages, remote, e.fetchFromStorage)
	e.dir = coherence.NewDirectory(cfg, "legobase.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.Tiers.SetCoherence(e.dir, "legobase", func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.legobase")
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "legobase" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

func (e *Engine) fetchFromStorage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	data, ok := e.disk[id]
	e.mu.Unlock()
	var out []byte
	if ok {
		out = make([]byte, len(data))
		copy(out, data)
	} else {
		out = e.layout.FormatPage(id).Bytes()
	}
	// Storage is network-attached (TCP) + SSD.
	op := e.cfg.Begin(c, "tcp.rpc")
	c.Advance(e.cfg.TCP.Cost(len(out)))
	op.End(int64(len(out)))
	e.ssd.Read(c, len(out))
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(out)))
	e.stats.NetMsgs.Add(1)
	// Replay log tail newer than the page image.
	pg := page.Wrap(out)
	for _, r := range e.log.Since(wal.LSN(pg.LSN())) {
		if r.PageID == uint64(id) && r.Type == wal.TypeUpdate {
			e.layout.WriteValue(out, r.Key, r.After, uint64(r.LSN))
			c.Advance(e.cfg.CPU.Cost(len(r.After)))
		}
	}
	return out, nil
}

func (e *Engine) readKey(c *sim.Clock) func(key uint64) ([]byte, error) {
	return func(key uint64) ([]byte, error) {
		var val []byte
		err := e.Tiers.View(c, e.layout.PageOf(key), func(data []byte) (err error) {
			val, err = e.layout.ReadValue(data, key)
			return err
		})
		return val, err
	}
}

// Execute implements engine.Engine.
func (e *Engine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	if e.crashed.Load() {
		e.stats.Shed.Add(1)
		return engine.ErrUnavailable
	}
	txID := e.nextTx.Add(1)
	st := engine.NewStagedTx(e.readKey(c))
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	keys, writes := st.WriteSet()
	if len(keys) == 0 {
		e.stats.Commits.Add(1)
		return nil
	}
	held := 0
	for _, k := range keys {
		if err := e.locks.Acquire(c, txID, k, txn.Exclusive, txn.DefaultAcquire); err != nil {
			for _, h := range keys[:held] {
				e.locks.Unlock(txID, h, txn.Exclusive)
			}
			e.stats.Aborts.Add(1)
			return engine.ErrConflict
		}
		held++
	}
	defer func() {
		for _, k := range keys {
			e.locks.Unlock(txID, k, txn.Exclusive)
		}
	}()
	logBytes := 0
	var lastLSN wal.LSN
	pageStamp := make(map[page.ID]uint64)
	for _, k := range keys {
		id := e.layout.PageOf(k)
		rec := wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(id), Key: k, After: writes[k]}
		rec.LSN = e.log.Append(rec)
		lastLSN = rec.LSN
		logBytes += rec.EncodedSize()
		if uint64(rec.LSN) > pageStamp[id] {
			pageStamp[id] = uint64(rec.LSN)
		}
	}
	commit := wal.Record{Type: wal.TypeCommit, TxID: txID}
	commit.LSN = e.log.Append(commit)
	lastLSN = commit.LSN
	logBytes += commit.EncodedSize()
	// Durable log: network round trip + SSD append.
	op := e.cfg.Begin(c, "tcp.rpc")
	c.Advance(e.cfg.TCP.Cost(logBytes))
	op.End(int64(logBytes))
	e.ssd.Write(c, logBytes)
	// Durable from here on: a failed tier apply below surfaces an error,
	// but the stamped commit record already survives a crash.
	st.StampCommit(uint64(commit.LSN))
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes))
	e.stats.NetMsgs.Add(1)
	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.commitCount++
	doRemote := e.CheckpointRemoteEvery > 0 && e.commitCount%e.CheckpointRemoteEvery == 0
	doStorage := e.CheckpointStorageEvery > 0 && e.commitCount%e.CheckpointStorageEvery == 0
	e.mu.Unlock()
	for _, k := range keys {
		key := k
		if err := e.Tiers.Mutate(c, e.layout.PageOf(k), func(data []byte) error {
			// Commits on one page can apply out of LSN order. Never lower
			// the page LSN: the redo guard in CheckpointRemote and Recover
			// reads a lowered LSN as "older records missing" and re-applies
			// them over newer values.
			return e.layout.WriteValue(data, key, writes[key], max(uint64(lastLSN), page.Wrap(data).LSN()))
		}); err != nil {
			// A failed tier apply (e.g. an injected fault on the remote
			// pull) leaves the commit durable in the log but unapplied to
			// the cache hierarchy; surface it as an (unacknowledged)
			// abort so the attempt lands in exactly one counter.
			e.stats.Aborts.Add(1)
			return err
		}
	}
	// Publish the commit stamps: the local tier's frames were re-stamped
	// by Mutate and stay fresh; any remote-tier copy that predates this
	// commit goes stale and is dropped on its next validated read.
	stamps := make([]coherence.PageStamp, 0, len(pageStamp))
	for id, st := range pageStamp {
		stamps = append(stamps, coherence.PageStamp{ID: id, Stamp: st})
	}
	e.dir.Publish(c, stamps, nil)
	if doRemote {
		e.CheckpointRemote(c)
	}
	if doStorage {
		e.CheckpointStorage(c)
	}
	e.stats.Commits.Add(1)
	return nil
}

// CheckpointRemote is the fast ARIES tier: the remote memory pool
// absorbs every commit at or below a horizon captured BEFORE the flush.
// The original version captured the horizon after — a commit that became
// durable during the flush (applied only to the soon-to-die local cache,
// or not applied at all) fell below the horizon without its pages in
// remote memory, and Recover's from-horizon replay skipped it. The
// capture-first ordering plus a log-tail redo closes both holes.
func (e *Engine) CheckpointRemote(c *sim.Clock) error {
	e.mu.Lock()
	target := e.durableLSN
	from := e.remoteCkptLSN
	e.mu.Unlock()
	// Redo the (from, target] tail through the tier hierarchy: Mutate's
	// page-LSN guard skips records already applied, and pulls any page the
	// caches dropped back from storage.
	recs, err := e.log.Replay(from)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.LSN > target || r.Type != wal.TypeUpdate {
			continue
		}
		rec := r
		if err := e.Tiers.Mutate(c, page.ID(rec.PageID), func(data []byte) error {
			if wal.LSN(page.Wrap(data).LSN()) >= rec.LSN {
				return nil
			}
			return e.layout.WriteValue(data, rec.Key, rec.After, uint64(rec.LSN))
		}); err != nil {
			return err
		}
	}
	for _, id := range e.Tiers.Local.DirtyIDs() {
		data, err := e.Tiers.Local.Get(c, id)
		if err != nil {
			return err
		}
		if err := e.Tiers.Remote.Put(c, id, data); err != nil {
			return err
		}
	}
	// The pages are now safe in remote memory; mark them clean locally
	// so they are not re-demoted.
	e.Tiers.Local.FlushAll(sim.NewClock())
	e.mu.Lock()
	if target > e.remoteCkptLSN {
		e.remoteCkptLSN = target
	}
	e.mu.Unlock()
	return nil
}

// CheckpointStorage is the slow ARIES tier and the engine's log
// lifecycle: on-disk page images absorb the retained tail at or below
// the coordinator's horizon, the horizon is published, and only then is
// the log truncated below it. The original version advanced the horizon
// without ever truncating (unbounded log) and trusted the remote tier's
// current contents (whose LRU may have evicted below-horizon pages).
func (e *Engine) CheckpointStorage(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// Redo the retained tail straight into the disk images — the
			// disk copy must cover <= h independent of what either cache
			// tier currently holds.
			recs, err := e.log.Replay(e.ckpt.Horizon())
			if err != nil {
				return err
			}
			dirty := map[page.ID]bool{}
			e.mu.Lock()
			for _, r := range recs {
				if r.LSN > h || r.Type != wal.TypeUpdate {
					continue
				}
				id := page.ID(r.PageID)
				img, ok := e.disk[id]
				if !ok {
					img = e.layout.FormatPage(id).Bytes()
					e.disk[id] = img
				}
				if uint64(r.LSN) <= page.Wrap(img).LSN() {
					continue
				}
				if err := e.layout.WriteValue(img, r.Key, r.After, uint64(r.LSN)); err != nil {
					e.mu.Unlock()
					return err
				}
				dirty[id] = true
			}
			e.mu.Unlock()
			for range dirty {
				op := e.cfg.Begin(c, "tcp.rpc")
				c.Advance(e.cfg.TCP.Cost(e.layout.PageSize))
				op.End(int64(e.layout.PageSize))
				e.ssd.Write(c, e.layout.PageSize)
				e.stats.PageBytes.Add(int64(e.layout.PageSize))
			}
			e.mu.Lock()
			if h > e.storageCkptLSN {
				e.storageCkptLSN = h
			}
			// The fast tier's replay start must never fall below the
			// truncation floor.
			if h > e.remoteCkptLSN {
				e.remoteCkptLSN = h
			}
			e.mu.Unlock()
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.log.TruncateBefore(h + 1)
			e.ssd.Write(c, 24) // checkpoint master record
			return nil
		},
	})
}

// Checkpoint implements engine.Checkpointer: one full round of both
// ARIES tiers, ending in log truncation.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	if err := e.CheckpointRemote(c); err != nil {
		return err
	}
	return e.CheckpointStorage(c)
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// Crash implements engine.Recoverer: the compute node dies; local cache is
// lost, remote memory and storage survive.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.Tiers.Local.InvalidateAll()
}

// Recover implements engine.Recoverer: LegoBase recovery — repopulate from
// REMOTE MEMORY (RDMA reads of the checkpointed pages) and replay only the
// log tail since the remote checkpoint.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	from := e.remoteCkptLSN
	e.mu.Unlock()
	// Replay the short tail; pages come from remote memory on demand
	// (charged as RDMA reads inside Tiers.View). Replay (not Since) so a
	// horizon below the truncation floor fails loudly instead of redoing
	// a partial prefix as if it were complete.
	recs, err := e.log.Replay(from)
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if r.Type != wal.TypeUpdate {
			continue
		}
		rec := r
		if err := e.Tiers.Mutate(c, page.ID(r.PageID), func(data []byte) error {
			if wal.LSN(page.Wrap(data).LSN()) >= rec.LSN {
				return nil
			}
			return e.layout.WriteValue(data, rec.Key, rec.After, uint64(rec.LSN))
		}); err != nil {
			return 0, err
		}
	}
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// RecoverFromStorageOnly is the ablation baseline for E9: ignore remote
// memory and run classic ARIES from the storage checkpoint.
func (e *Engine) RecoverFromStorageOnly(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	from := e.storageCkptLSN
	e.mu.Unlock()
	recs, err := e.log.Replay(from)
	if err != nil {
		return 0, err
	}
	logBytes := 0
	for i := range recs {
		logBytes += recs[i].EncodedSize()
	}
	op := e.cfg.Begin(c, "tcp.rpc")
	c.Advance(e.cfg.TCP.Cost(logBytes))
	op.End(int64(logBytes))
	e.ssd.Read(c, logBytes)
	touched := map[page.ID]bool{}
	for _, r := range recs {
		if r.Type != wal.TypeUpdate {
			continue
		}
		id := page.ID(r.PageID)
		if !touched[id] {
			touched[id] = true
			// Page fetched from storage, not remote memory.
			if _, err := e.fetchFromStorage(c, id); err != nil {
				return 0, err
			}
		}
		c.Advance(e.cfg.CPU.Cost(len(r.After)))
	}
	e.crashed.Store(false)
	return c.Now() - start, nil
}
