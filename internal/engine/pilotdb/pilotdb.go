// Package pilotdb implements the PilotDB architecture of §2.3: a
// disaggregated PERSISTENT MEMORY layer holds the log, giving transactions
// near-memory-speed persistence at a fraction of DRAM-pool cost. Its two
// signature optimizations are modeled as switchable options so E8 can
// ablate them:
//
//   - Compute-node-driven logging: the compute node appends log entries to
//     remote PM with one-sided RDMA (no PM-server CPU on the commit path).
//     The ablation uses server-driven two-sided appends instead.
//   - Optimistic page reads: the compute node reads pages from the page
//     store without coordinating on freshness, validates the page LSN, and
//     repairs a stale page by fetching the log tail from PM and replaying
//     it locally. The ablation forces coordinated (fresh) reads.
package pilotdb

import (
	"errors"
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

// Options toggle PilotDB's two optimizations.
type Options struct {
	ComputeDrivenLogging bool
	OptimisticReads      bool
}

// Pilot returns the full PilotDB configuration.
func Pilot() Options { return Options{ComputeDrivenLogging: true, OptimisticReads: true} }

// Naive returns the server-driven, coordinated-read baseline.
func Naive() Options { return Options{} }

// Engine is the PilotDB-style engine.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	opt    Options
	// PMLog is the disaggregated persistent-memory log layer.
	PMLog *storagenode.LogStore
	// PageStore materializes pages asynchronously.
	PageStore *storagenode.Replica

	log   *wal.Log
	locks *txn.LockTable
	stats engine.Stats
	pool  *buffer.Pool

	// dir replaces the engine's old hand-rolled pageLSN map: commit
	// publishes bump per-page versions (ModeBump — optimistic readers
	// validate lazily), and the pool validates cached frames against it.
	dir   *coherence.Directory
	poolH *coherence.Handle

	// Validations / Repairs count optimistic-read outcomes.
	Validations atomic.Int64
	Repairs     atomic.Int64

	// ckpt drives the log lifecycle: the page store materializes the
	// durable prefix and adopts the horizon, then the PM log and the
	// compute-side log truncate below it — PM capacity is the scarce
	// resource this engine exists to economize.
	ckpt *checkpoint.Coordinator

	// LagEvery delays page-store ingestion by one batch every N commits
	// to surface stale optimistic reads (0 = always lag by one commit).
	mu         sync.Mutex
	pending    []wal.Record // records not yet given to the page store
	durableLSN wal.LSN
	nextTx     atomic.Uint64
	crashed    atomic.Bool
}

// New creates the engine.
func New(cfg *sim.Config, layout heap.Layout, poolPages int, opt Options) *Engine {
	e := &Engine{
		cfg:       cfg,
		layout:    layout,
		opt:       opt,
		PMLog:     storagenode.NewLogStore(cfg, storagenode.MediumPM),
		PageStore: storagenode.NewReplica(cfg, "ps-0", 0, layout, 1),
		log:       wal.NewLog(),
		locks:     txn.NewLockTable(),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetchPage, nil)
	e.dir = coherence.NewDirectory(cfg, "pilotdb.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.poolH = e.dir.Register("pool", e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.ckpt = checkpoint.New(cfg, "ckpt.pilotdb")
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.opt.ComputeDrivenLogging && e.opt.OptimisticReads {
		return "pilotdb"
	}
	return "pilotdb-naive"
}

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// expectedLSN is the LSN a fresh copy of the page must carry: the highest
// published update-record LSN for the page (the directory version).
func (e *Engine) expectedLSN(id page.ID) wal.LSN {
	return wal.LSN(e.dir.Version(id))
}

// fetchPage is the optimistic (or coordinated) page read.
func (e *Engine) fetchPage(c *sim.Clock, id page.ID) ([]byte, error) {
	want := e.expectedLSN(id)
	if e.opt.OptimisticReads {
		// Aggressive read: no freshness coordination.
		data, err := e.PageStore.ReadPage(c, id, 0)
		if err != nil {
			return nil, err
		}
		e.stats.StorageOps.Add(1)
		e.stats.NetBytes.Add(int64(len(data)))
		e.stats.NetMsgs.Add(1)
		e.Validations.Add(1)
		if wal.LSN(page.Wrap(data).LSN()) >= want {
			return data, nil
		}
		// Stale: repair locally from the PM log's per-page chain.
		e.Repairs.Add(1)
		recs, err := e.PMLog.SincePage(c, uint64(id), wal.LSN(page.Wrap(data).LSN()))
		if errors.Is(err, wal.ErrTruncated) {
			// The repair window starts below the PM log's truncation
			// floor: the per-page chain cannot reconstruct the gap.
			// Fall back to a coordinated read — converge the page store
			// from the authoritative log and fetch a fresh image.
			e.PageStore.CatchUpFromLog(c, e.log)
			data, err = e.PageStore.ReadPage(c, id, want)
			if err != nil {
				return nil, err
			}
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Type == wal.TypeUpdate {
				e.layout.WriteValue(data, r.Key, r.After, uint64(r.LSN))
				c.Advance(e.cfg.CPU.Cost(len(r.After)))
			}
		}
		return data, nil
	}
	// Coordinated read: push pending records to the page store first
	// (synchronously, charged to the reader), then read fresh.
	e.mu.Lock()
	pend := e.pending
	e.pending = nil
	e.mu.Unlock()
	if len(pend) > 0 {
		if err := e.PageStore.Ingest(c, pend); err != nil {
			// The delivery failed (injected drop/tear): the records are
			// still owed to the page store — re-queue them.
			e.mu.Lock()
			e.pending = append(pend, e.pending...)
			e.mu.Unlock()
			return nil, err
		}
	}
	data, err := e.PageStore.ReadPage(c, id, want)
	if err != nil {
		// Dropped asynchronous deliveries can leave the store
		// permanently stale; re-ship the delta from the authoritative
		// log and retry once.
		e.PageStore.CatchUpFromLog(sim.NewClock(), e.log)
		data, err = e.PageStore.ReadPage(c, id, want)
	}
	if err != nil {
		return nil, err
	}
	e.stats.StorageOps.Add(1)
	e.stats.NetBytes.Add(int64(len(data)))
	e.stats.NetMsgs.Add(1)
	return data, nil
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

	// Persistence on the PM layer.
	if e.opt.ComputeDrivenLogging {
		// One-sided RDMA append (the LogStore PM medium charges
		// exactly that).
		if err := e.PMLog.Append(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
	} else {
		// Server-driven: a two-sided RPC engages the PM server CPU.
		c.Advance(e.cfg.RDMARPC.Cost(logBytes) + e.cfg.RemoteCPU)
		if err := e.PMLog.Append(sim.NewClock(), recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		c.Advance(e.cfg.PMWrite.Cost(logBytes))
	}
	st.StampCommit(uint64(commit.LSN))
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes))
	e.stats.NetMsgs.Add(1)

	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	// Page-store ingestion is asynchronous: the previous pending batch
	// goes out now (background), the new one waits — so optimistic
	// readers genuinely race materialization.
	prev := e.pending
	e.pending = recs
	e.mu.Unlock()
	if len(prev) > 0 {
		e.PageStore.Ingest(sim.NewClock(), prev)
	}
	// Apply to cached pages, then publish the commit stamps. An applied
	// frame is re-stamped from its mutated bytes and stays fresh; a failed
	// apply (the PM log already holds the commit) leaves the old stamp and
	// the publish stales the frame, so the next read repairs via fetchPage
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
	e.stats.Commits.Add(1)
	return nil
}

// Crash implements engine.Recoverer.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: transactions persisted in the PM
// log survive; the compute node learns the durable LSN with one PM read.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	e.mu.Lock()
	e.durableLSN = e.PMLog.HighLSN()
	e.mu.Unlock()
	c.Advance(e.cfg.RDMA.Cost(64))
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. The PM log is the scarce
// fast tier, so the checkpoint drains the asynchronous page-store
// pipeline (the pending batch plus any dropped deliveries), stamps the
// store with the horizon, and truncates the PM log — a fabric RPC that
// can fail and is retried next round — plus the compute-side log.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			e.mu.Lock()
			pend := e.pending
			e.pending = nil
			e.mu.Unlock()
			if len(pend) > 0 {
				if err := e.PageStore.Ingest(c, pend); err != nil {
					e.mu.Lock()
					e.pending = append(pend, e.pending...)
					e.mu.Unlock()
					return err
				}
			}
			if e.PageStore.Failed() {
				return storagenode.ErrStaleReplica
			}
			shipped := e.PageStore.CatchUpFromLog(c, e.log)
			e.stats.NetMsgs.Add(int64(shipped))
			e.PageStore.AdvanceHorizon(c, h)
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			if err := e.PMLog.TruncateBefore(c, h+1); err != nil {
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
