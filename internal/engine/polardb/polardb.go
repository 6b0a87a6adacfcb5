// Package polardb implements the PolarDB architecture of §2.1: compute
// separated from a PolarFS-style storage layer — a POSIX-like distributed
// file system with 3-way ParallelRaft replication over RDMA. Unlike
// Aurora, PolarDB ships BOTH redo log records (at commit) and page images
// (checkpoint writes of dirty pages), trading network volume for a storage
// layer that never has to materialize pages from log. Commits ride RDMA
// and NVMe, so commit latency is low; E1 measures the byte cost.
package polardb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/raft"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the PolarDB-style engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	// FS is the PolarFS log: raft-replicated records.
	FS    *raft.Group
	log   *wal.Log
	locks *txn.LockTable
	stats engine.Stats
	pool  *buffer.Pool

	// dir version-stamps the pool's frames at commit publishes; with one
	// pool there is no fan-out (the pool is excluded from its own
	// publishes), but a frame whose apply failed goes stale automatically
	// and is refetched with log replay.
	dir   *coherence.Directory
	poolH *coherence.Handle

	// gc, when non-nil, combines concurrent commit-path raft appends into
	// shared group flushes (engine.GroupCommitter): one replication round
	// carries every rider's encoded records.
	gc *sim.Batcher[[]byte, int]

	// CheckpointEvery flushes dirty pages to PolarFS every N commits
	// (page shipping; 0 disables).
	CheckpointEvery int

	// ckpt drives the full log lifecycle (Checkpoint): redo the retained
	// tail into the PolarFS page images, publish the horizon, compact the
	// raft log and truncate the redo log below it.
	ckpt *checkpoint.Coordinator

	mu          sync.Mutex
	pagesFS     map[page.ID][]byte // page images persisted in PolarFS
	durableLSN  wal.LSN
	commitCount int
	fsCompactTo int // raft commit index captured with the horizon
	nextTx      atomic.Uint64
	crashed     atomic.Bool
}

// New creates the engine with a 3-way PolarFS group.
func New(cfg *sim.Config, layout heap.Layout, poolPages int) *Engine {
	e := &Engine{
		cfg:             cfg,
		layout:          layout,
		FS:              raft.NewGroup(cfg, 3),
		log:             wal.NewLog(),
		locks:           txn.NewLockTable(),
		pagesFS:         make(map[page.ID][]byte),
		CheckpointEvery: 64,
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, e.shipPage)
	e.dir = coherence.NewDirectory(cfg, "polardb.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.poolH = e.dir.Register("pool", e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.polardb")
	return e
}

// Peer creates an additional compute node attached to root's shared
// substrate: the PolarFS raft group, the authoritative log (one LSN
// space), and the page-coherence directory are shared; the cache, lock
// table, page-image map, and stats are the peer's own. A peer that has
// not shipped a page reads it by formatting a fresh image and replaying
// the shared log up to its durable watermark — which is why the fleet
// warms a fresh peer with Recover before routing to it. Peers rely on the
// cluster router keeping concurrent writers to one key on one member
// (independent lock tables); peerID stripes transaction IDs.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:             root.cfg,
		layout:          root.layout,
		FS:              root.FS,
		log:             root.log,
		locks:           txn.NewLockTable(),
		pagesFS:         make(map[page.ID][]byte),
		dir:             root.dir,
		CheckpointEvery: root.CheckpointEvery,
		ckpt:            root.ckpt, // one horizon per shared log
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetchPage, e.shipPage)
	e.poolH = e.dir.Register(fmt.Sprintf("peer%d", peerID), e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.nextTx.Store(uint64(peerID) << 40)
	return e
}

// Detach unregisters the peer's cache from the shared coherence directory
// (a retired member stops absorbing invalidation fan-out).
func (e *Engine) Detach() { e.dir.Deregister(e.poolH) }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "polardb" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// EnableGroupCommit implements engine.GroupCommitter: commit-path raft
// appends share one replication round of up to maxItems transactions or
// the virtual window.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.dir.EnableBatching(maxItems, window)
	if maxItems <= 1 {
		e.gc = nil
		return
	}
	e.gc = sim.NewBatcher(e.cfg, "polardb.groupcommit",
		sim.BatchPolicy{MaxItems: maxItems, Window: window, OnFlush: e.noteFlush},
		e.flushGroup)
}

func (e *Engine) noteFlush(n int, reason sim.FlushReason) {
	e.stats.GroupFlushes.Add(1)
	if reason == sim.FlushSize {
		e.stats.FlushOnSize.Add(1)
	} else {
		e.stats.FlushOnTimeout.Add(1)
	}
}

// flushGroup raft-appends every rider's encoded records as one
// replication round; rider i learns its log index in out[i].
func (e *Engine) flushGroup(c *sim.Clock, blobs [][]byte, out []int) error {
	first, err := e.FS.AppendBatch(c, blobs)
	if err != nil {
		return err
	}
	for i := range out {
		out[i] = first + i
	}
	e.stats.NetMsgs.Add(3)
	return nil
}

// fetchPage reads a page image from PolarFS (RDMA + NVMe) and replays any
// newer log records onto it.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	img, ok := e.pagesFS[id]
	e.mu.Unlock()
	var data []byte
	if ok {
		data = make([]byte, len(img))
		copy(data, img)
	} else {
		data = e.layout.FormatPage(id).Bytes()
	}
	c.Advance(e.cfg.RDMA.Cost(len(data)) + e.cfg.SSDRead.Cost(len(data)))
	e.stats.StorageOps.Add(1)
	e.stats.NetMsgs.Add(1)
	e.stats.NetBytes.Add(int64(len(data)))
	// Replay newer records for this page from the durable log.
	pg := page.Wrap(data)
	recs := e.log.Since(wal.LSN(pg.LSN()))
	for _, r := range recs {
		if r.PageID != uint64(id) || r.Type != wal.TypeUpdate {
			continue
		}
		if r.LSN <= e.durableWatermark() {
			e.layout.WriteValue(data, r.Key, r.After, uint64(r.LSN))
			c.Advance(e.cfg.CPU.Cost(len(r.After)))
		}
	}
	return data, nil
}

func (e *Engine) durableWatermark() wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.durableLSN
}

// shipPage persists a dirty page image into PolarFS (page shipping).
func (e *Engine) shipPage(c *sim.Clock, id page.ID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	e.mu.Lock()
	e.pagesFS[id] = cp
	e.mu.Unlock()
	// 3-way replicated write over RDMA + NVMe.
	if _, err := e.FS.Append(c, cp); err != nil {
		return err
	}
	e.stats.PageBytes.Add(int64(len(data)))
	e.stats.NetBytes.Add(int64(len(data)))
	e.stats.NetMsgs.Add(1)
	e.stats.StorageOps.Add(1)
	return nil
}

func (e *Engine) readKey(c *sim.Clock) func(key uint64) ([]byte, error) {
	return func(key uint64) ([]byte, error) {
		return engine.ReadCached(c, e.pool, e.layout, key, &e.stats)
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
	// Log shipping at commit: encode records, raft-append the batch.
	var lastLSN wal.LSN
	payload := 0
	var encoded []byte
	pageStamp := make(map[page.ID]uint64)
	for _, k := range keys {
		id := e.layout.PageOf(k)
		rec := wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(id), Key: k, After: writes[k]}
		rec.LSN = e.log.Append(rec)
		lastLSN = rec.LSN
		encoded = rec.Encode(encoded)
		if uint64(rec.LSN) > pageStamp[id] {
			pageStamp[id] = uint64(rec.LSN)
		}
	}
	commit := wal.Record{Type: wal.TypeCommit, TxID: txID}
	commit.LSN = e.log.Append(commit)
	lastLSN = commit.LSN
	encoded = commit.Encode(encoded)
	payload = len(encoded)
	if e.gc != nil {
		if _, err := e.gc.Submit(c, encoded); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.GroupCommits.Add(1)
	} else {
		if _, err := e.FS.Append(c, encoded); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.NetMsgs.Add(3)
	}
	st.StampCommit(uint64(commit.LSN))
	// PolarFS replicates leader -> 2 followers over the fabric.
	e.stats.LogBytes.Add(int64(payload))
	e.stats.NetBytes.Add(int64(payload) * 3)
	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.commitCount++
	doCkpt := e.CheckpointEvery > 0 && e.commitCount%e.CheckpointEvery == 0
	e.mu.Unlock()
	// Apply to the cache, then publish the commit stamps. Mutate re-stamps
	// each frame from the mutated bytes, so an applied frame stays fresh
	// across the publish; a failed apply (e.g. an injected fault on the
	// page fetch) leaves the old stamp and the publish makes the frame
	// stale, so the next reader refetches with log replay — replacing the
	// old explicit Invalidate-on-error call.
	for _, k := range keys {
		key := k
		_ = e.pool.Mutate(c, e.layout.PageOf(k), func(data []byte) error {
			return e.layout.WriteValue(data, key, writes[key], uint64(lastLSN))
		})
	}
	stamps := make([]coherence.PageStamp, 0, len(pageStamp))
	for id, st := range pageStamp {
		stamps = append(stamps, coherence.PageStamp{ID: id, Stamp: st})
	}
	e.dir.Publish(c, stamps, e.poolH)
	if doCkpt {
		// Page shipping: flush dirty pages to PolarFS. A failed flush
		// does not fail the (already durable) commit — the pages stay
		// dirty and the next checkpoint retries.
		_ = e.pool.FlushAll(c)
	}
	e.stats.Commits.Add(1)
	return nil
}

// Crash implements engine.Recoverer.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: elect a PolarFS leader if needed,
// learn the log high-water mark, then resume — pages and log are durable
// in PolarFS, and pages are read on demand with log replay folded into
// fetchPage. Advancing the watermark matters for fleet peers: without it
// a takeover node would replay only its OWN commits onto fetched pages
// and never surface records the crashed member made durable. Records past
// the watermark that were never acknowledged may surface too, which is
// legal — an unacked write may appear after recovery, a lost acked one
// may not.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	if _, err := e.FS.Elect(c); err != nil {
		return 0, err
	}
	if head := e.log.Head(); head > 1 {
		e.mu.Lock()
		if head-1 > e.durableLSN {
			e.durableLSN = head - 1
		}
		e.mu.Unlock()
	}
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. PolarDB already ships page
// images, so the flush step redoes the retained log tail (at or below
// the horizon) directly into the PolarFS page images — covering commits
// whose cache applies failed and never got shipped — then runs the usual
// dirty-page flush. Truncation compacts the raft log up to the commit
// index captured with the horizon and drops the redo log below the
// horizon. Entries compacted out of raft are covered by the shipped
// images plus the retained redo tail. The checkpoint must run on the
// node that owns the shipped images; fleet peers share the coordinator
// so they observe one consistent horizon.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.fsCompactTo = e.FS.CommitIndex()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			recs, err := e.log.Replay(e.ckpt.Horizon())
			if err != nil {
				return err
			}
			dirty := map[page.ID]int{}
			e.mu.Lock()
			for _, r := range recs {
				if r.LSN > h || r.Type != wal.TypeUpdate {
					continue
				}
				id := page.ID(r.PageID)
				img, ok := e.pagesFS[id]
				if !ok {
					img = e.layout.FormatPage(id).Bytes()
					e.pagesFS[id] = img
				}
				if uint64(r.LSN) <= page.Wrap(img).LSN() {
					continue
				}
				if err := e.layout.WriteValue(img, r.Key, r.After, uint64(r.LSN)); err != nil {
					e.mu.Unlock()
					return err
				}
				dirty[id] = len(img)
			}
			e.mu.Unlock()
			for _, n := range dirty {
				c.Advance(e.cfg.RDMA.Cost(n) + e.cfg.SSDWrite.Cost(n))
				e.stats.PageBytes.Add(int64(n))
				e.stats.NetBytes.Add(int64(n))
				e.stats.NetMsgs.Add(1)
				e.stats.StorageOps.Add(1)
			}
			// Regular page shipping of whatever is dirty in the cache; a
			// fault here is tolerable (the redo above already covered the
			// horizon) but surfaces as a failed round for the caller.
			return e.pool.FlushAll(c)
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.mu.Lock()
			idx := e.fsCompactTo
			e.mu.Unlock()
			if err := e.FS.CompactTo(c, idx); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// Pool exposes the buffer pool.
func (e *Engine) Pool() *buffer.Pool { return e.pool }
