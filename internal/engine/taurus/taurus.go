// Package taurus implements the Taurus architecture of §2.1: logs and
// pages get different replication and consistency treatments because their
// access patterns differ. Log batches are synchronously replicated to a
// small group of log stores (durability), while each page-store write goes
// to only ONE page store — the writer stays frugal — and the page stores
// converge through gossip. Readers route to a page store fresh enough for
// their LSN.
package taurus

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/buffer/coherence"
	"github.com/disagglab/disagg/internal/checkpoint"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the Taurus-style engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	// LogStores is the synchronous durability group (3 stores, quorum 2).
	LogStores *storagenode.LogStoreGroup
	// PageStores converge via gossip.
	PageStores *storagenode.PageStoreGroup

	log   *wal.Log
	locks *txn.LockTable
	stats engine.Stats
	pool  *buffer.Pool

	// dir version-stamps the pool's frames at commit publishes; a frame
	// whose local apply failed keeps its old stamp and goes stale, so the
	// next reader refetches instead of seeing the pre-commit image.
	dir   *coherence.Directory
	poolH *coherence.Handle

	// gc, when non-nil, combines concurrent quorum log appends into
	// shared group flushes (engine.GroupCommitter). The frugal per-commit
	// page-store write stays per transaction.
	gc *sim.Batcher[[]wal.Record, wal.LSN]

	// GossipEvery runs one anti-entropy round every N commits.
	GossipEvery int

	// ckpt converges the page stores on the durable prefix, publishes the
	// horizon, and truncates both log tiers below it.
	ckpt *checkpoint.Coordinator

	mu          sync.Mutex
	durableLSN  wal.LSN
	commitCount int
	nextTx      atomic.Uint64
	crashed     atomic.Bool
}

// New creates the engine with nPageStores page stores.
func New(cfg *sim.Config, layout heap.Layout, poolPages, nPageStores int) *Engine {
	log := wal.NewLog()
	e := &Engine{
		cfg:         cfg,
		layout:      layout,
		LogStores:   storagenode.NewLogStoreGroup(cfg, 3, 2, storagenode.MediumSSD),
		PageStores:  storagenode.NewPageStoreGroup(cfg, nPageStores, layout, log),
		log:         log,
		locks:       txn.NewLockTable(),
		GossipEvery: 32,
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.dir = coherence.NewDirectory(cfg, "taurus.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.poolH = e.dir.Register("pool", e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.taurus")
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "taurus" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// EnableGroupCommit implements engine.GroupCommitter: commits share
// quorum log-store flushes of up to maxItems transactions or the virtual
// window.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	e.dir.EnableBatching(maxItems, window)
	if maxItems <= 1 {
		e.gc = nil
		return
	}
	e.gc = sim.NewBatcher(e.cfg, "taurus.groupcommit",
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

// flushGroup quorum-appends every rider's records as one flush in LSN
// order; all riders wake with the group's durable high-water LSN.
func (e *Engine) flushGroup(c *sim.Clock, groups [][]wal.Record, out []wal.LSN) error {
	var recs []wal.Record
	for _, g := range groups {
		recs = append(recs, g...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	if err := e.LogStores.Append(c, recs); err != nil {
		return err
	}
	e.stats.NetMsgs.Add(int64(len(e.LogStores.Stores)))
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

// fetchPage reads from a fresh-enough page store; if gossip lags it runs a
// round on demand (reader-triggered catch-up).
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	min := e.durableLSN
	e.mu.Unlock()
	for try := 0; try < 4; try++ {
		data, err := e.PageStores.ReadPage(c, id, min)
		if err == nil {
			e.stats.StorageOps.Add(1)
			e.stats.NetMsgs.Add(1)
			e.stats.NetBytes.Add(int64(len(data)))
			return data, nil
		}
		if err != storagenode.ErrStaleReplica {
			return nil, err
		}
		// No store fresh enough: trigger gossip (charged to the
		// waiting reader — staleness has a visible cost).
		e.PageStores.GossipRound(c)
	}
	return nil, storagenode.ErrStaleReplica
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

	// Durability: quorum append to the log stores.
	logCopies := int64(len(e.LogStores.Stores))
	if e.gc != nil {
		if _, err := e.gc.Submit(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.GroupCommits.Add(1)
	} else {
		if err := e.LogStores.Append(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.NetMsgs.Add(logCopies)
	}
	// The commit is durable once the log-store quorum has it; the page
	// distribution below can still fail, leaving the transaction durable
	// but unacknowledged — the stamp is what lets the history checker
	// classify that correctly.
	st.StampCommit(uint64(commit.LSN))
	// Frugal page distribution: the writer sends the records to exactly
	// one page store (Taurus's writer-load optimization), charged here.
	if err := e.PageStores.WriteToOne(c, recs); err != nil {
		e.stats.Aborts.Add(1)
		return engine.Unavail(err)
	}
	// Fan-out: all (3) log stores receive the batch, but only ONE page
	// store does — Taurus's frugality vs Aurora's 6-way fan-out.
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes) * (logCopies + 1))
	e.stats.NetMsgs.Add(1)

	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.commitCount++
	doGossip := e.GossipEvery > 0 && e.commitCount%e.GossipEvery == 0
	e.mu.Unlock()
	// Apply to cached pages, then publish the commit stamps. Mutate
	// re-stamps an applied frame from the mutated bytes so it stays fresh;
	// a failed apply (the commit is already quorum-durable) leaves the old
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
	if doGossip {
		// Background anti-entropy (not charged to the writer).
		e.PageStores.GossipRound(sim.NewClock())
	}
	e.stats.Commits.Add(1)
	return nil
}

// Crash implements engine.Recoverer.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: learn the quorum-durable LSN from
// the log stores and resume; page stores catch up by gossip.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	e.durableLSN = e.LogStores.HighLSN()
	e.mu.Unlock()
	op := e.cfg.Begin(c, "tcp.rpc")
	c.Advance(e.cfg.TCP.Cost(64))
	op.End(64)
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. Taurus checkpoints both
// tiers: the page stores converge on the durable prefix (gossip, charged
// to the checkpoint's clock — anti-entropy here is checkpoint work, not
// a reader's problem) and adopt the horizon; then the quorum log stores
// and the authoritative log drop everything below it. The log-store
// truncation is a fabric RPC and can fail under injected faults — the
// coordinator surfaces the error after publishing the horizon, and the
// next round retries the (idempotent) truncation.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			shipped := e.PageStores.GossipRound(c)
			e.stats.NetMsgs.Add(int64(shipped))
			if e.PageStores.AdvanceHorizon(c, h) == 0 {
				return storagenode.ErrNoQuorum
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.LogStores.TruncateBefore(c, h+1); err != nil {
				return err
			}
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// MaxPageLag exposes the page-store staleness metric.
func (e *Engine) MaxPageLag() wal.LSN { return e.PageStores.MaxLag() }

// Pool exposes the compute cache.
func (e *Engine) Pool() *buffer.Pool { return e.pool }
