// Package aurora implements the Aurora architecture of §2.1: software-level
// disaggregation with "the log is the database". The single writer node
// ships only redo log records — never pages — to a 6-replica / 3-AZ
// storage volume with a 4/6 write quorum; storage nodes materialize pages
// from the log asynchronously. Reader replicas share the same volume and
// serve reads at their replica LSN. Crash recovery is nearly instant: a
// new writer only needs the durable volume LSN (no redo replay on the
// compute node).
package aurora

import (
	"fmt"
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

// Engine is the Aurora-style engine: one writer, optional readers, shared
// quorum volume.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	Volume *storagenode.Volume
	log    *wal.Log
	locks  *txn.LockTable
	stats  engine.Stats

	pool    *buffer.Pool // writer-node cache
	readers []*buffer.Pool

	// dir is the engine's page-coherence directory: commit publishes fan
	// invalidation notices to the reader caches (riding the log stream)
	// and version-stamp every cached frame. poolH is the writer pool's
	// subscription (excluded from its own publishes — the writer applies
	// in place).
	dir   *coherence.Directory
	poolH *coherence.Handle

	// gc, when non-nil, combines concurrent commit appends into shared
	// quorum flushes (engine.GroupCommitter).
	gc *sim.Batcher[[]wal.Record, wal.LSN]

	// ckpt runs the log-lifecycle rounds: materialize the durable prefix
	// on the storage replicas, publish the horizon, truncate the writer's
	// log below it.
	ckpt *checkpoint.Coordinator

	mu         sync.Mutex
	durableLSN wal.LSN
	nextTx     atomic.Uint64
	crashed    atomic.Bool
}

// New creates the engine with the canonical volume, a writer cache of
// poolPages frames, and `readers` reader replicas with caches of the same
// size.
func New(cfg *sim.Config, layout heap.Layout, poolPages, readers int) *Engine {
	e := &Engine{
		cfg:    cfg,
		layout: layout,
		Volume: storagenode.NewAuroraVolume(cfg, layout),
		log:    wal.NewLog(),
		locks:  txn.NewLockTable(),
	}
	e.pool = buffer.NewPool(cfg, poolPages, e.fetcherAt(func() wal.LSN { return e.DurableLSN() }), nil)
	for i := 0; i < readers; i++ {
		e.readers = append(e.readers, buffer.NewPool(cfg, poolPages, e.fetcherAt(e.DurableLSN), nil))
	}
	e.dir = coherence.NewDirectory(cfg, "aurora.coherence", coherence.ModeInvalidate)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	stampOf := func(d []byte) uint64 { return page.Wrap(d).LSN() }
	e.poolH = e.dir.Register("writer", e.pool)
	e.pool.SetCoherence(e.poolH, stampOf)
	for i, rp := range e.readers {
		rp.SetCoherence(e.dir.Register(fmt.Sprintf("reader%d", i), rp), stampOf)
	}
	e.ckpt = checkpoint.New(cfg, "ckpt.aurora")
	return e
}

// Peer creates an additional compute node attached to root's shared
// substrate: it shares the quorum volume, the authoritative log (one LSN
// space), and the page-coherence directory, but owns a fresh cache, lock
// table, and stats — the disaggregation elasticity story, where a
// scaled-out node is stateless and attaches in seconds. The peer's pool
// registers as a coherence tier with the ROOT's directory, so commits on
// any member invalidate every member's cached copies. Correctness
// contract: peers have independent lock tables, so a router must keep
// concurrent writers to the same key on one member (the cluster shard map
// does). peerID stripes transaction IDs so members never collide in the
// shared log.
func Peer(root *Engine, peerID, poolPages int) *Engine {
	e := &Engine{
		cfg:    root.cfg,
		layout: root.layout,
		Volume: root.Volume,
		log:    root.log,
		locks:  txn.NewLockTable(),
		dir:    root.dir,
		ckpt:   root.ckpt, // one horizon per shared log
	}
	e.pool = buffer.NewPool(e.cfg, poolPages, e.fetcherAt(func() wal.LSN { return e.DurableLSN() }), nil)
	e.poolH = e.dir.Register(fmt.Sprintf("peer%d", peerID), e.pool)
	e.pool.SetCoherence(e.poolH, func(d []byte) uint64 { return page.Wrap(d).LSN() })
	e.nextTx.Store(uint64(peerID) << 40)
	// A fresh node knows nothing durable yet; Recover (the fleet's warm-up
	// step) learns the volume's high LSN. Until then reads float at LSN 0,
	// which is safe (floors only rise) but cold.
	return e
}

// Detach unregisters the peer's cache tier from the shared coherence
// directory so retired members stop absorbing invalidation fan-out.
func (e *Engine) Detach() { e.dir.Deregister(e.poolH) }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "aurora" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// EnableGroupCommit implements engine.GroupCommitter: commit-path volume
// appends ride a shared flush of up to maxItems transactions or the
// virtual window, whichever triggers first.
func (e *Engine) EnableGroupCommit(maxItems int, window time.Duration) {
	// Coherence publications piggyback on the same cadence: one durable
	// group flush = one invalidation round for the whole group.
	e.dir.EnableBatching(maxItems, window)
	if maxItems <= 1 {
		e.gc = nil
		return
	}
	e.gc = sim.NewBatcher(e.cfg, "aurora.groupcommit",
		sim.BatchPolicy{MaxItems: maxItems, Window: window, OnFlush: e.noteFlush},
		e.flushGroup)
}

// Coherence exposes the engine's page-coherence directory (experiments
// ablate its mode and read its counters).
func (e *Engine) Coherence() *coherence.Directory { return e.dir }

// SetCoherenceMode switches invalidation fan-out vs lazy version bumps.
func (e *Engine) SetCoherenceMode(m coherence.Mode) { e.dir.SetMode(m) }

func (e *Engine) noteFlush(n int, reason sim.FlushReason) {
	e.stats.GroupFlushes.Add(1)
	if reason == sim.FlushSize {
		e.stats.FlushOnSize.Add(1)
	} else {
		e.stats.FlushOnTimeout.Add(1)
	}
}

// flushGroup ships every rider's records as one quorum append in LSN
// order; all riders observe the same durable LSN (the group's high-water
// mark) or the same error.
func (e *Engine) flushGroup(c *sim.Clock, groups [][]wal.Record, out []wal.LSN) error {
	var recs []wal.Record
	for _, g := range groups {
		recs = append(recs, g...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	if err := e.Volume.AppendLog(c, recs); err != nil {
		return err
	}
	e.stats.NetMsgs.Add(int64(e.Volume.Alive()))
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

// DurableLSN reports the write-quorum-durable LSN.
func (e *Engine) DurableLSN() wal.LSN {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.durableLSN
}

// fetcherAt builds a buffer-pool fetcher that reads pages from the volume
// at the given LSN floor.
func (e *Engine) fetcherAt(minLSN func() wal.LSN) buffer.Fetcher {
	return func(c *sim.Clock, id page.ID) ([]byte, error) {
		data, err := e.Volume.ReadPage(c, id, minLSN())
		if err != nil {
			// Injected drops can leave the same log hole on every
			// replica (no peer can fill it); heal from the writer's
			// authoritative log and retry once.
			e.Volume.Heal(sim.NewClock(), e.log)
			data, err = e.Volume.ReadPage(c, id, minLSN())
		}
		if err != nil {
			return nil, err
		}
		e.stats.StorageOps.Add(1)
		e.stats.NetMsgs.Add(1)
		e.stats.NetBytes.Add(int64(len(data)))
		return data, nil
	}
}

func (e *Engine) readKey(c *sim.Clock, pool *buffer.Pool) func(key uint64) ([]byte, error) {
	return func(key uint64) ([]byte, error) {
		return engine.ReadCached(c, pool, e.layout, key, &e.stats)
	}
}

// Execute implements engine.Engine (runs on the writer node).
func (e *Engine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	if e.crashed.Load() {
		e.stats.Shed.Add(1)
		return engine.ErrUnavailable
	}
	txID := e.nextTx.Add(1)
	st := engine.NewStagedTx(e.readKey(c, e.pool))
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	keys, writes := st.WriteSet()
	if len(keys) == 0 {
		e.stats.Commits.Add(1)
		return nil
	}
	// Read-only work proceeded on the read quorum; committing writes
	// requires the write quorum.
	if !e.Volume.WriteAvailable() {
		e.stats.Aborts.Add(1)
		return engine.ErrUnavailable
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
	// Build and ship ONLY log records (log-as-the-database). The written
	// pages' new coherence stamps are the per-page max update-record LSN:
	// that is the page LSN a storage-side materialization carries, so a
	// refetched page always validates.
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

	if e.gc != nil {
		// Ride a shared group flush; the flush updates durableLSN to the
		// group's high LSN and charges one fan-out message burst for the
		// whole batch. Per-transaction bytes still cross the fabric.
		if _, err := e.gc.Submit(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.GroupCommits.Add(1)
	} else {
		if err := e.Volume.AppendLog(c, recs); err != nil {
			e.stats.Aborts.Add(1)
			return engine.Unavail(err)
		}
		e.stats.NetMsgs.Add(int64(e.Volume.Alive()))
	}
	st.StampCommit(uint64(commit.LSN))
	// The writer fans the records out to every alive replica (6-way
	// under full health); all copies cross the network.
	fanout := int64(e.Volume.Alive())
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes) * fanout)

	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.mu.Unlock()
	// Apply to the writer's cache first (pages materialize lazily in
	// storage): Mutate re-stamps the frame from the mutated bytes, so the
	// writer's own copy stays fresh across the publish below. A failed
	// apply leaves the old stamp in place and the publish automatically
	// makes the frame stale — replacing the old explicit
	// Invalidate-on-error call.
	for _, k := range keys {
		key := k
		if e.pool.Contains(e.layout.PageOf(k)) {
			_ = e.pool.Mutate(c, e.layout.PageOf(k), func(data []byte) error {
				return e.layout.WriteValue(data, key, writes[key], uint64(lastLSN))
			})
		}
	}
	// Publish the commit at its durability point: the directory bumps the
	// written pages' versions and fans invalidation notices (riding the
	// log stream) to every reader cache holding them. Without this, a
	// reader frame cached before the commit serves the old version
	// forever — not replica lag but a permanently stale read, which the
	// history checker flags as a session-order cycle.
	stamps := make([]coherence.PageStamp, 0, len(pageStamp))
	for id, s := range pageStamp {
		stamps = append(stamps, coherence.PageStamp{ID: id, Stamp: s})
	}
	e.dir.Publish(c, stamps, e.poolH)
	e.stats.Commits.Add(1)
	return nil
}

// ReadReplica implements engine.Reader: a read-only transaction on reader
// replica idx, served from its cache backed by the shared volume. Replica
// reads follow the same accounting invariant as Execute: every attempt
// lands in exactly one of Commits/Aborts.
func (e *Engine) ReadReplica(c *sim.Clock, idx int, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	pool := e.readers[idx]
	st := engine.NewStagedTx(e.readKey(c, pool))
	if err := fn(st); err != nil {
		e.stats.Aborts.Add(1)
		return err
	}
	if !st.Empty() {
		e.stats.Aborts.Add(1)
		return engine.ErrReadOnly
	}
	e.stats.Commits.Add(1)
	return nil
}

// InvalidateReader drops a page from a reader cache (the writer sends
// cache-invalidation notices alongside the log stream).
func (e *Engine) InvalidateReader(idx int, id page.ID) { e.readers[idx].Invalidate(id) }

// Crash implements engine.Recoverer: the writer node dies; the volume and
// its materialized pages survive.
func (e *Engine) Crash() {
	e.crashed.Store(true)
	e.pool.InvalidateAll()
}

// Recover implements engine.Recoverer: Aurora recovery — poll a read
// quorum for the durable volume LSN; no compute-side redo (storage nodes
// materialize on demand).
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	lsn, err := e.Volume.FindHighLSN(c)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.durableLSN = lsn
	e.mu.Unlock()
	e.crashed.Store(false)
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. Aurora's checkpoint is a
// storage-side operation: the writer nudges every alive replica to
// materialize the log prefix at or below the durable LSN into pages
// (Heal), publishes the horizon to the volume, and only then drops its
// own retained log tail below the horizon. Replicas that are down during
// the round adopt the horizon later via RepairReplica's checkpoint-image
// copy, so truncation never strands them.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: e.DurableLSN,
		Flush: func(c *sim.Clock, h wal.LSN) error {
			shipped := e.Volume.Heal(c, e.log)
			e.stats.NetMsgs.Add(int64(shipped))
			advanced := e.Volume.AdvanceHorizon(c, h)
			if advanced < e.Volume.WriteQ {
				// Fewer than a write quorum hold the checkpoint; keep the
				// full tail so repair can still replay from the log.
				return storagenode.ErrNoQuorum
			}
			e.stats.NetMsgs.Add(int64(advanced))
			return nil
		},
		Truncate: func(c *sim.Clock, h wal.LSN) error {
			e.log.TruncateBefore(h + 1)
			return nil
		},
	})
}

// RecoveryHorizon implements engine.Checkpointer.
func (e *Engine) RecoveryHorizon() wal.LSN { return e.ckpt.Horizon() }

// Pool exposes the writer cache.
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// Log exposes the authoritative log (replica repair, tests).
func (e *Engine) Log() *wal.Log { return e.log }
