// Package socrates implements the Socrates (Azure SQL Hyperscale)
// architecture of §2.1: durability and availability are separated into
// four tiers — compute, the XLOG service (fast durable log), page servers
// (availability: serve pages, apply log asynchronously), and XStore (cheap
// durable object storage holding page snapshots). A commit only waits for
// the XLOG append; page servers and XStore are off the commit path, so
// durability does not require copies in fast storage and availability does
// not require a fixed replica count.
package socrates

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/device"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the Socrates-style engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	// XLOG is the dedicated durability tier.
	XLOG *storagenode.LogStore
	// PageServers provide availability; each holds the full page range.
	PageServers []*storagenode.Replica
	// XStore is the cheap long-term tier receiving page snapshots.
	XStore *device.ObjectStore

	log   *wal.Log
	locks *txn.LockTable
	stats engine.Stats
	pool  *buffer.Pool

	// dir version-stamps the pool's frames at commit publishes; a frame
	// whose local apply failed keeps its old stamp and goes stale, so the
	// next reader refetches instead of seeing the pre-commit image.
	dir   *coherence.Directory
	poolH *coherence.Handle

	// gc, when non-nil, combines concurrent XLOG appends into shared
	// group flushes (engine.GroupCommitter).
	gc *sim.Batcher[[]wal.Record, wal.LSN]

	// SnapshotEvery pushes page snapshots to XStore every N commits
	// (0 disables).
	SnapshotEvery int

	// ckpt drives the log lifecycle: page servers absorb the durable
	// prefix and adopt the horizon, then XLOG and the authoritative log
	// truncate below it.
	ckpt *checkpoint.Coordinator

	mu          sync.Mutex
	durableLSN  wal.LSN
	commitCount int
	nextTx      atomic.Uint64
	crashed     atomic.Bool
}

// New creates the engine with nPageServers page servers.
func New(cfg *sim.Config, layout heap.Layout, poolPages, nPageServers int) *Engine {
	e := &Engine{
		cfg:           cfg,
		layout:        layout,
		XLOG:          storagenode.NewLogStore(cfg, storagenode.MediumSSD),
		XStore:        device.NewObjectStore(cfg),
		log:           wal.NewLog(),
		locks:         txn.NewLockTable(),
		SnapshotEvery: 256,
	}
	for i := 0; i < nPageServers; i++ {
		e.PageServers = append(e.PageServers, storagenode.NewReplica(cfg, fmt.Sprintf("ps-%d", i), i%3, layout, 1+0.1*float64(i)))
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.dir = coherence.NewDirectory(cfg, "socrates.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.poolH = e.dir.Register("pool", e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.socrates")
	return e
}

// Peer creates an additional compute node attached to root's shared
// substrate: XLOG, page servers, XStore, the authoritative log (one LSN
// space), and the page-coherence directory are shared; the cache, lock
// table, and stats are the peer's own. Peers rely on the cluster router
// keeping concurrent writers to one key on one member (independent lock
// tables); peerID stripes transaction IDs. A fresh peer is cold until
// Recover learns the XLOG high-water mark.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:           root.cfg,
		layout:        root.layout,
		XLOG:          root.XLOG,
		PageServers:   root.PageServers,
		XStore:        root.XStore,
		log:           root.log,
		locks:         txn.NewLockTable(),
		dir:           root.dir,
		SnapshotEvery: root.SnapshotEvery,
		ckpt:          root.ckpt, // one horizon per shared log
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetchPage, nil)
	e.poolH = e.dir.Register(fmt.Sprintf("peer%d", peerID), e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.nextTx.Store(uint64(peerID) << 40)
	return e
}

// Detach unregisters the peer's cache from the shared coherence directory
// (a retired member stops absorbing invalidation fan-out).
func (e *Engine) Detach() { e.dir.Deregister(e.poolH) }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "socrates" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// EnableGroupCommit implements engine.GroupCommitter: commits share XLOG
// flushes of up to maxItems transactions or the virtual window.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.dir.EnableBatching(maxItems, window)
	if maxItems <= 1 {
		e.gc = nil
		return
	}
	e.gc = sim.NewBatcher(e.cfg, "socrates.groupcommit",
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

// flushGroup appends every rider's records to XLOG as one flush in LSN
// order; all riders wake with the group's durable high-water LSN.
func (e *Engine) flushGroup(c *sim.Clock, groups [][]wal.Record, out []wal.LSN) error {
	var recs []wal.Record
	for _, g := range groups {
		recs = append(recs, g...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	if err := e.XLOG.Append(c, recs); err != nil {
		return err
	}
	e.stats.NetMsgs.Add(1)
	high := recs[len(recs)-1].LSN
	e.mu.Lock()
	if high > e.durableLSN {
		e.durableLSN = high
	}
	e.mu.Unlock()
	for i := range out {
		out[i] = high
	}
	return nil
}

// fetchPage reads from the first healthy, fresh-enough page server.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	min := e.durableLSN
	e.mu.Unlock()
	var lastErr error = engine.ErrUnavailable
	for attempt := 0; attempt < 2; attempt++ {
		for _, ps := range e.PageServers {
			data, err := ps.ReadPage(c, id, min)
			if err == nil {
				e.stats.StorageOps.Add(1)
				e.stats.NetMsgs.Add(1)
				e.stats.NetBytes.Add(int64(len(data)))
				return data, nil
			}
			lastErr = err
		}
		// Dropped background dissemination can leave every page server
		// with the same log hole; re-ship the delta from the
		// authoritative log (what XLOG replay does) and retry once.
		bg := sim.NewClock()
		for _, ps := range e.PageServers {
			ps.CatchUpFromLog(bg, e.log)
		}
	}
	return nil, lastErr
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
	var recs []wal.Record
	logBytes := 0
	var lastLSN wal.LSN
	pageStamp := make(map[page.ID]uint64)
	for _, k := range keys {
		id := e.layout.PageOf(k)
		rec := wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(id), Key: k, After: writes[k]}
		rec.LSN = e.log.Append(rec)
		lastLSN = rec.LSN
		logBytes += rec.EncodedSize()
		recs = append(recs, rec)
		if uint64(rec.LSN) > pageStamp[id] {
			pageStamp[id] = uint64(rec.LSN)
		}
	}
	commit := wal.Record{Type: wal.TypeCommit, TxID: txID}
	commit.LSN = e.log.Append(commit)
	lastLSN = commit.LSN
	logBytes += commit.EncodedSize()
	recs = append(recs, commit)

	// Durability: the commit waits ONLY for XLOG.
	if e.gc != nil {
		if _, err := e.gc.Submit(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.GroupCommits.Add(1)
	} else {
		if err := e.XLOG.Append(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.NetMsgs.Add(1)
	}
	st.StampCommit(uint64(commit.LSN))
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes))

	// Availability: XLOG disseminates to page servers off the commit
	// path (the writer does NOT pay this fan-out — Socrates's advantage
	// over Taurus's writer-driven distribution).
	bg := sim.NewClock()
	for _, ps := range e.PageServers {
		ps.Ingest(bg, recs)
	}

	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.commitCount++
	doSnap := e.SnapshotEvery > 0 && e.commitCount%e.SnapshotEvery == 0
	e.mu.Unlock()
	// Apply to cached pages, then publish the commit stamps. Mutate
	// re-stamps an applied frame from the mutated bytes so it stays fresh;
	// a failed apply (XLOG already made the commit durable) leaves the old
	// stamp and the publish stales the frame, so the next reader refetches
	// — replacing the old explicit Invalidate-on-error call.
	for _, k := range keys {
		key := k
		if e.pool.Contains(e.layout.PageOf(k)) {
			_ = e.pool.Mutate(c, e.layout.PageOf(k), func(data []byte) error {
				return e.layout.WriteValue(data, key, writes[key], uint64(lastLSN))
			})
		}
	}
	stamps := make([]coherence.PageStamp, 0, len(pageStamp))
	for id, st := range pageStamp {
		stamps = append(stamps, coherence.PageStamp{ID: id, Stamp: st})
	}
	e.dir.Publish(c, stamps, e.poolH)
	if doSnap {
		e.snapshotToXStore(c, keys)
	}
	e.stats.Commits.Add(1)
	return nil
}

// snapshotToXStore pushes current page images of recently written pages to
// XStore — the extra data movement the tutorial notes Socrates may incur.
func (e *Engine) snapshotToXStore(c *sim.Clock, keys []uint64) {
	seen := map[page.ID]bool{}
	for _, k := range keys {
		id := e.layout.PageOf(k)
		if seen[id] {
			continue
		}
		seen[id] = true
		bg := sim.NewClock() // read page server on background clock
		data, err := e.PageServers[0].ReadPage(bg, id, 0)
		if err != nil {
			continue
		}
		e.XStore.Put(c, fmt.Sprintf("page/%d", id), data)
		e.stats.PageBytes.Add(int64(len(data)))
		e.stats.NetBytes.Add(int64(len(data)))
		e.stats.NetMsgs.Add(1)
	}
}

// Crash implements engine.Recoverer.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: the new compute node learns the
// durable LSN from XLOG; page servers keep serving (availability tier
// unaffected by compute failure).
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	e.durableLSN = e.XLOG.HighLSN()
	e.mu.Unlock()
	// One metadata round trip to XLOG.
	op := e.cfg.Begin(c, "tcp.rpc")
	c.Advance(e.cfg.TCP.Cost(64))
	op.End(64)
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. In Socrates the durability
// tier (XLOG) must stay small — it is the expensive fast tier — so the
// checkpoint drives page servers to absorb the durable prefix, stamps
// them with the horizon, and truncates XLOG (a fabric RPC that can fail
// and is retried next round) plus the compute-side log below it.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			advanced := 0
			for _, ps := range e.PageServers {
				if ps.Failed() {
					continue
				}
				shipped := ps.CatchUpFromLog(c, e.log)
				e.stats.NetMsgs.Add(int64(shipped))
				ps.AdvanceHorizon(c, h)
				advanced++
			}
			if advanced == 0 {
				return storagenode.ErrNoQuorum
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.XLOG.TruncateBefore(c, h+1); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// Pool exposes the compute cache.
func (e *Engine) Pool() *buffer.Pool { return e.pool }
