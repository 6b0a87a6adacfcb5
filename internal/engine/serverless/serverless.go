// Package serverless implements the PolarDB Serverless architecture of
// §3.1: storage disaggregation (a quorum log volume) PLUS memory
// disaggregation — an elastic, shared remote buffer pool that all compute
// nodes use. Pages in the shared pool are always current, so secondary
// nodes read fresh data without log replay, resizing the buffer is a
// metadata operation, and failover promotes a secondary without cache
// warm-up. Local caches are kept coherent with page-LSN validation (one
// 8-byte one-sided read) instead of invalidation broadcasts.
package serverless

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
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/storagenode"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// Engine is the PolarDB Serverless-style engine: one primary (writer) and
// any number of secondaries sharing the remote buffer pool.
type Engine struct {
	cfg    *sim.Config
	layout heap.Layout
	Volume *storagenode.Volume
	// Shared is the disaggregated shared buffer pool.
	Shared  *buffer.RemotePool
	MemNode *memnode.Pool

	log   *wal.Log
	locks *txn.LockTable
	stats engine.Stats

	// nodes[0] is the primary; others are secondaries. Each node has a
	// small local cache plus a QP for validation reads.
	nodes   []*computeNode
	primary atomic.Int32

	// dir is the memory-node page directory (ModeBump: local caches are
	// kept coherent by page-LSN validation, not invalidation broadcasts).
	// It replaces the old hand-rolled pageLSN map; the shared pool and
	// every node cache validate their entries against it.
	dir     *coherence.Directory
	stampOf buffer.StampFunc

	// ckpt materializes the durable prefix on the volume replicas and
	// truncates the compute-side log below the published horizon.
	ckpt *checkpoint.Coordinator

	mu         sync.Mutex
	durableLSN wal.LSN
	nextTx     atomic.Uint64
}

type computeNode struct {
	cache   *buffer.Pool
	qp      *rdma.QP
	crashed atomic.Bool
}

// New creates the engine with `nodes` compute nodes (>=1), a shared pool
// of sharedPages frames, and per-node caches of localPages frames.
func New(cfg *sim.Config, layout heap.Layout, nodes, localPages, sharedPages int) *Engine {
	if nodes < 1 {
		nodes = 1
	}
	mn := memnode.New(cfg, "shared-buf", sharedPages*layout.PageSize+1024)
	e := &Engine{
		cfg:     cfg,
		layout:  layout,
		Volume:  storagenode.NewAuroraVolume(cfg, layout),
		MemNode: mn,
		log:     wal.NewLog(),
		locks:   txn.NewLockTable(),
	}
	e.dir = coherence.NewDirectory(cfg, "serverless.coherence", coherence.ModeBump)
	e.dir.OnInvalidate = func(n int) { e.stats.Invalidations.Add(int64(n)) }
	e.dir.OnStale = func() { e.stats.StaleHits.Add(1) }
	e.stampOf = func(d []byte) uint64 { return page.Wrap(d).LSN() }
	base, err := mn.Alloc(uint64(sharedPages * layout.PageSize))
	if err != nil {
		panic("serverless: shared pool sizing bug: " + err.Error())
	}
	e.Shared = buffer.NewRemotePool(cfg, mn.Node(), nil, base, sharedPages, layout.PageSize)
	e.Shared.SetCoherence(e.dir.Register("shared", e.Shared), e.stampOf)
	for i := 0; i < nodes; i++ {
		n := &computeNode{qp: mn.Connect(nil)}
		n.cache = buffer.NewPool(cfg, localPages, nil, nil)
		n.cache.SetCoherence(e.dir.Register(fmt.Sprintf("node%d", i), n.cache), e.stampOf)
		e.nodes = append(e.nodes, n)
	}
	e.ckpt = checkpoint.New(cfg, "ckpt.serverless")
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "polardb-serverless" }

// Stats implements engine.Engine.
func (e *Engine) Stats() *engine.Stats { return &e.stats }

// directoryLSN returns the current LSN of a page in the shared directory,
// charging the validation read.
func (e *Engine) directoryLSN(c *sim.Clock, n *computeNode, id page.ID) wal.LSN {
	// One 8-byte one-sided read against the memory node.
	var buf [8]byte
	n.qp.Read(c, 0, buf[:])
	return wal.LSN(e.dir.Version(id))
}

// viewPage runs fn on a current page image for the node: local cache if
// fresh, else shared pool, else storage volume. The cache only serves a
// frame whose stamp is current in the directory (replacing the old manual
// page-LSN check + Invalidate, which miscounted a stale frame as a hit
// before dropping it). A page read on a miss is handed to fn before the
// node's cache takes it over. fn must not modify or retain the bytes.
func (e *Engine) viewPage(c *sim.Clock, n *computeNode, id page.ID, fn func(data []byte) error) error {
	want := e.directoryLSN(c, n, id)
	if ok, err := n.cache.View(c, id, fn); ok {
		e.stats.CacheHits.Add(1)
		return err
	}
	e.stats.CacheMisses.Add(1)
	buf, ok, err := e.Shared.Get(c, id)
	if err != nil {
		return err
	}
	if ok {
		e.stats.NetBytes.Add(int64(len(buf)))
		e.stats.NetMsgs.Add(1)
	} else {
		// Shared-pool miss: fetch from storage, populate the shared pool.
		e.mu.Lock()
		min := e.durableLSN
		e.mu.Unlock()
		buf, err = e.Volume.ReadPage(c, id, minForPage(min, want))
		if err != nil {
			// Injected drops can leave the same log hole on every replica;
			// heal from the authoritative log and retry once.
			e.Volume.Heal(sim.NewClock(), e.log)
			buf, err = e.Volume.ReadPage(c, id, minForPage(min, want))
		}
		if err != nil {
			return err
		}
		e.stats.StorageOps.Add(1)
		e.stats.NetBytes.Add(int64(len(buf)))
		e.stats.NetMsgs.Add(1)
		if err := e.Shared.Put(c, id, buf); err != nil {
			return err
		}
	}
	ferr := fn(buf)
	n.cache.Install(c, id, buf, false)
	return ferr
}

// getPage returns a private copy of a current page image for the node.
func (e *Engine) getPage(c *sim.Clock, n *computeNode, id page.ID) ([]byte, error) {
	var out []byte
	err := e.viewPage(c, n, id, func(data []byte) error {
		out = append([]byte(nil), data...)
		return nil
	})
	return out, err
}

// minForPage: the storage read must cover the page's directory LSN (it may
// trail the global durable LSN).
func minForPage(durable, want wal.LSN) wal.LSN {
	if want < durable {
		return want
	}
	return durable
}

func (e *Engine) readKeyOn(c *sim.Clock, n *computeNode) func(key uint64) ([]byte, error) {
	return func(key uint64) ([]byte, error) {
		var val []byte
		err := e.viewPage(c, n, e.layout.PageOf(key), func(data []byte) (err error) {
			val, err = e.layout.ReadValue(data, key)
			return err
		})
		return val, err
	}
}

// Execute implements engine.Engine: runs on the primary.
func (e *Engine) Execute(c *sim.Clock, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	n := e.nodes[e.primary.Load()]
	if n.crashed.Load() {
		e.stats.Shed.Add(1)
		return engine.ErrUnavailable
	}
	txID := e.nextTx.Add(1)
	st := engine.NewStagedTx(e.readKeyOn(c, n))
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
	// Durability: log to the storage volume (inherited from PolarDB/
	// Aurora lineage).
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
	if err := e.Volume.AppendLog(c, recs); err != nil {
		e.stats.Aborts.Add(1)
		return engine.Unavail(err)
	}
	// Durable from here on: every later failure (page latch conflict,
	// shared-pool fault) aborts the acknowledgement, not the log record —
	// the stamp marks the attempt as indeterminate rather than aborted.
	st.StampCommit(uint64(commit.LSN))
	e.stats.LogBytes.Add(int64(logBytes))
	e.stats.NetBytes.Add(int64(logBytes))
	e.stats.NetMsgs.Add(1)

	// Freshness: write the updated pages into the SHARED pool so every
	// node sees current data without replay. The read-modify-write of
	// each page happens under a page latch (PolarDB Serverless keeps
	// page-level physical latches on the memory node) so concurrent
	// committers to one page cannot clobber each other.
	pageIDs := make([]page.ID, 0, len(keys))
	seen := map[page.ID]bool{}
	for _, k := range keys {
		if id := e.layout.PageOf(k); !seen[id] {
			seen[id] = true
			pageIDs = append(pageIDs, id)
		}
	}
	sort.Slice(pageIDs, func(i, j int) bool { return pageIDs[i] < pageIDs[j] })
	latched := 0
	for _, id := range pageIDs {
		if err := e.locks.Acquire(c, txID, pageLatchKey(id), txn.Exclusive, txn.DefaultAcquire); err != nil {
			for _, h := range pageIDs[:latched] {
				e.locks.Unlock(txID, pageLatchKey(h), txn.Exclusive)
			}
			e.stats.Aborts.Add(1)
			return engine.ErrConflict
		}
		latched++
	}
	defer func() {
		for _, id := range pageIDs {
			e.locks.Unlock(txID, pageLatchKey(id), txn.Exclusive)
		}
	}()
	for _, id := range pageIDs {
		data, err := e.getPage(c, n, id)
		if err != nil {
			// The volume append is durable but the shared pool never saw
			// the update: the page LSN directory stays put, so readers
			// keep a consistent pre-update view. Surface the failure as
			// an (unacknowledged) abort.
			e.stats.Aborts.Add(1)
			return err
		}
		for _, k := range keys {
			if e.layout.PageOf(k) != id {
				continue
			}
			if err := e.layout.WriteValue(data, k, writes[k], uint64(lastLSN)); err != nil {
				e.stats.Aborts.Add(1)
				return err
			}
		}
		if err := e.Shared.Put(c, id, data); err != nil {
			e.stats.Aborts.Add(1)
			return err
		}
		e.stats.NetBytes.Add(int64(len(data)))
		e.stats.NetMsgs.Add(1)
		n.cache.Install(c, id, data, false)
		// Publish per page, as soon as the shared pool holds the update:
		// an abort later in the loop must not bump versions for pages the
		// shared pool never saw (readers keep a consistent pre-update
		// view, exactly as the old per-page pageLSN bump behaved). The
		// writer's own copies carry the commit LSN and stay fresh; every
		// other node's cached copy goes stale and revalidates.
		e.dir.Publish(c, []coherence.PageStamp{{ID: id, Stamp: pageStamp[id]}}, nil)
	}
	e.mu.Lock()
	if lastLSN > e.durableLSN {
		e.durableLSN = lastLSN
	}
	e.mu.Unlock()
	e.stats.Commits.Add(1)
	return nil
}

// pageLatchKey maps a page ID into a lock-table namespace disjoint from
// key locks.
func pageLatchKey(id page.ID) uint64 { return 1<<63 | uint64(id) }

// ReadReplica implements engine.Reader: read-only transaction on a
// secondary — always fresh, no replay.
func (e *Engine) ReadReplica(c *sim.Clock, idx int, fn func(tx engine.Tx) error) error {
	e.stats.Attempts.Add(1)
	n := e.nodes[idx]
	if n.crashed.Load() {
		e.stats.Shed.Add(1)
		return engine.ErrUnavailable
	}
	st := engine.NewStagedTx(e.readKeyOn(c, n))
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

// Crash implements engine.Recoverer: the primary dies (its local cache is
// lost; the shared pool survives — memory disaggregation breaks fate
// sharing).
func (e *Engine) Crash() {
	n := e.nodes[e.primary.Load()]
	n.crashed.Store(true)
	n.cache.InvalidateAll()
}

// Recover implements engine.Recoverer: failover — promote the next healthy
// node to primary. No cache warm-up (the working set is in the shared
// pool) and no log replay (pages there are current): one directory round
// trip plus a quorum LSN poll.
func (e *Engine) Recover(c *sim.Clock) (time.Duration, error) {
	start := c.Now()
	cur := e.primary.Load()
	next := -1
	for i := range e.nodes {
		if int32(i) != cur && !e.nodes[i].crashed.Load() {
			next = i
			break
		}
	}
	if next == -1 {
		// Restart the crashed node itself.
		e.nodes[cur].crashed.Store(false)
		next = int(cur)
	}
	lsn, err := e.Volume.FindHighLSN(c)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	if lsn > e.durableLSN {
		e.durableLSN = lsn
	}
	e.mu.Unlock()
	// One control-plane RPC to take ownership of the shared pool.
	c.Advance(e.cfg.RDMARPC.Cost(64))
	e.primary.Store(int32(next))
	return c.Now() - start, nil
}

// Checkpoint implements engine.Checkpointer. The shared memory pool is
// volatile — it never counts as checkpoint state. Like Aurora, the
// durable flush is storage-side: the volume replicas materialize the
// prefix at or below the durable LSN and adopt the horizon; only then
// does the compute-side log drop its tail below it.
func (e *Engine) Checkpoint(c *sim.Clock) error {
	return e.ckpt.Checkpoint(c, checkpoint.Round{
		Durable: func() wal.LSN {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.durableLSN
		},
		Flush: func(c *sim.Clock, h wal.LSN) error {
			shipped := e.Volume.Heal(c, e.log)
			e.stats.NetMsgs.Add(int64(shipped))
			advanced := e.Volume.AdvanceHorizon(c, h)
			if advanced < e.Volume.WriteQ {
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

// Nodes reports the number of compute nodes.
func (e *Engine) Nodes() int { return len(e.nodes) }

// AddNode scales out by attaching a fresh secondary: a metadata operation
// (no data movement — the point of shared storage + shared memory).
func (e *Engine) AddNode(c *sim.Clock, localPages int) int {
	n := &computeNode{qp: e.MemNode.Connect(nil)}
	n.cache = buffer.NewPool(e.cfg, localPages, nil, nil)
	c.Advance(e.cfg.RDMARPC.Cost(64))
	e.mu.Lock()
	e.nodes = append(e.nodes, n)
	idx := len(e.nodes) - 1
	e.mu.Unlock()
	n.cache.SetCoherence(e.dir.Register(fmt.Sprintf("node%d", idx), n.cache), e.stampOf)
	return idx
}
