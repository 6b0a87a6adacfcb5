// Package monolithic implements the baseline the tutorial contrasts every
// disaggregated design against (§1): a single-server database with a local
// buffer pool, a local write-ahead log fsynced to the server's SSD, and
// pages on the same SSD. No network is involved — but there is no
// elasticity either, and recovery must replay the local log against the
// on-disk pages.
package monolithic

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
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the monolithic baseline.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	ssd    *device.SSD
	pool   *buffer.Pool
	log    *wal.Log
	locks  *txn.LockTable
	stats  engine.Stats

	// dir version-stamps the pool's frames at commit publishes; a frame
	// whose apply failed keeps its old stamp and goes stale, forcing the
	// next reader through fetchPage's log replay.
	dir   *coherence.Directory
	poolH *coherence.Handle
	ckpt  *checkpoint.Coordinator

	// testBetweenFlushAndTruncate, when set (tests only), runs in the
	// checkpoint's flush→truncate window — the window whose in-flight
	// commits the original Checkpoint ordering lost.
	testBetweenFlushAndTruncate func()

	mu sync.Mutex
	// disk is the durable page store (post-checkpoint images).
	disk map[page.ID][]byte
	// durableLSN is the highest LSN fsynced to the SSD log.
	durableLSN wal.LSN
	// checkpointLSN is the LSN covered by on-disk pages.
	checkpointLSN wal.LSN
	nextTx        atomic.Uint64
	crashed       atomic.Bool
}

// New creates a monolithic engine with a buffer pool of poolPages frames.
func New(cfg *sim.Config, layout heap.Layout, poolPages int) *Engine {
	e := &Engine{
		cfg:    cfg,
		layout: layout,
		ssd:    device.NewSSD(cfg, 32),
		log:    wal.NewLog(),
		locks:  txn.NewLockTable(),
		disk:   make(map[page.ID][]byte),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, e.writebackPage)
	e.dir = coherence.NewDirectory(cfg, "monolithic.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.poolH = e.dir.Register("pool", e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.monolithic")
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "monolithic" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	e.mu.Lock()
	data, ok := e.disk[id]
	e.mu.Unlock()
	e.stats.StorageOps.Add(1)
	if !ok {
		data = e.layout.FormatPage(id).Bytes()
	}
	e.ssd.Read(c, e.layout.PageSize)
	out := make([]byte, len(data))
	copy(out, data)
	// Redo the log tail for this page: the disk image only reflects the
	// last writeback/checkpoint, but the fsynced WAL may hold newer
	// committed updates (e.g. after a failed in-pool apply staled the
	// frame). Replaying here makes a fetch authoritative.
	pg := page.Wrap(out)
	e.mu.Lock()
	ckpt := e.checkpointLSN
	e.mu.Unlock()
	recs, err := e.log.Replay(ckpt)
	if err != nil {
		// The log was truncated past the page's checkpoint floor — a
		// horizon-bookkeeping bug, surfaced loudly rather than serving a
		// silently stale page.
		return nil, err
	}
	for _, r := range recs {
		if r.Type == wal.TypeUpdate && page.ID(r.PageID) == id && uint64(r.LSN) > pg.LSN() {
			if err := e.layout.WriteValue(out, r.Key, r.After, uint64(r.LSN)); err != nil {
				break
			}
		}
	}
	return out, nil
}

func (e *Engine) writebackPage(c *sim.Clock, id page.ID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	e.mu.Lock()
	e.disk[id] = cp
	e.mu.Unlock()
	e.ssd.Write(c, len(data))
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
	// Commit-time 2PL on the write set (sorted: deadlock-free).
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
	// Log, fsync, apply.
	logBytes := 0
	var lastLSN wal.LSN
	pageStamp := make(map[page.ID]uint64)
	for _, k := range keys {
		id := e.layout.PageOf(k)
		rec := wal.Record{Type: wal.TypeUpdate, TxID: txID, PageID: uint64(id), Key: k, After: writes[k]}
		lastLSN = e.log.Append(rec)
		logBytes += rec.EncodedSize()
		if uint64(lastLSN) > pageStamp[id] {
			pageStamp[id] = uint64(lastLSN)
		}
	}
	commit := wal.Record{Type: wal.TypeCommit, TxID: txID}
	lastLSN = e.log.Append(commit)
	logBytes += commit.EncodedSize()
	e.ssd.Write(c, logBytes) // group-commit fsync
	st.StampCommit(uint64(lastLSN))
	e.stats.LogBytes.Add(int64(logBytes))
	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.mu.Unlock()
	// Apply, then publish the commit stamps: an applied frame is
	// re-stamped from its mutated bytes and stays fresh; a failed apply
	// (the fsynced WAL already holds the commit) leaves the old stamp and
	// the publish stales the frame, so the next reader refetches through
	// the log replay in fetchPage.
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
	e.stats.Commits.Add(1)
	return nil
}

// Checkpoint flushes all dirty pages and truncates the log, implementing
// engine.Checkpointer. The recovery horizon is captured BEFORE the flush:
// a commit acked while the flush runs lands above the horizon and
// survives in the retained log tail. (The original flush-then-capture
// ordering truncated such a commit's records while its page updates were
// still only in the soon-to-be-lost buffer pool.)
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			// Redo the retained tail up to the horizon into the pool
			// before flushing: a commit whose in-pool apply failed (its
			// frame was staled) exists only in log records the truncation
			// below h+1 is about to discard. Page-LSN guards make the
			// redo idempotent against already-applied commits.
			recs, err := e.log.Replay(e.ckpt.Horizon())
			if err != nil {
				return err
			}
			for _, r := range recs {
				if r.LSN > h || r.Type != wal.TypeUpdate {
					continue
				}
				rec := r
				_ = e.pool.Mutate(c, page.ID(rec.PageID), func(data []byte) error {
					if uint64(rec.LSN) <= page.Wrap(data).LSN() {
						return nil
					}
					return e.layout.WriteValue(data, rec.Key, rec.After, uint64(rec.LSN))
				})
			}
			if err := e.pool.FlushAll(c); err != nil {
				return err
			}
			e.mu.Lock()
			if h > e.checkpointLSN {
				e.checkpointLSN = h
			}
			e.mu.Unlock()
			if e.testBetweenFlushAndTruncate != nil {
				e.testBetweenFlushAndTruncate()
			}
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.log.TruncateBefore(h + 1)
			e.ssd.Write(c, 24) // checkpoint master record
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// DurableLSN reports the highest LSN fsynced to the SSD log.
func (e *Engine) DurableLSN() wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.durableLSN
}

// Crash implements engine.Recoverer: the buffer pool is lost; the SSD
// (log + checkpointed pages) survives.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: ARIES-style redo of the log tail
// against on-disk pages.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	ckpt := e.checkpointLSN
	e.mu.Unlock()
	recs, err := e.log.Replay(ckpt)
	if err != nil {
		return 0, err
	}
	// Read the log tail from SSD.
	logBytes := 0
	for i := range recs {
		logBytes += recs[i].EncodedSize()
	}
	e.ssd.Read(c, logBytes)
	// Per-page LSN floors, each page fetched once.
	floors := make(map[uint64]wal.LSN)
	pageLSN := func(pid uint64) wal.LSN {
		if lsn, ok := floors[pid]; ok {
			return lsn
		}
		data, err := e.fetchPage(c, page.ID(pid))
		if err != nil {
			floors[pid] = 0
			return 0
		}
		lsn := wal.LSN(page.Wrap(data).LSN())
		floors[pid] = lsn
		return lsn
	}
	applied := wal.Redo(recs, pageLSN, func(r wal.Record) {
		e.pool.Mutate(c, page.ID(r.PageID), func(data []byte) error {
			return e.layout.WriteValue(data, r.Key, r.After, uint64(r.LSN))
		})
	})
	_ = applied
	if err := e.pool.FlushAll(c); err != nil {
		return 0, err
	}
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Pool exposes the buffer pool (tests and cache-metric experiments).
func (e *Engine) Pool() *buffer.Pool { return e.pool }
