package rdma

import (
	"errors"
	"sync/atomic"
	"time"

	"github.com/disagglab/disagg/internal/sim"
)

// ErrNodeFailed is returned by verbs issued against a crashed node.
var ErrNodeFailed = errors.New("rdma: node failed")

// Stats aggregates fabric traffic. A Stats value may be shared by many
// queue pairs (e.g. all connections belonging to one engine) so experiments
// can report network bytes/messages per transaction. Safe for concurrent use.
type Stats struct {
	Ops      atomic.Int64 // doorbell-batched submissions (1 per PostN)
	WQEs     atomic.Int64 // individual verbs posted (≥ Ops)
	RPCs     atomic.Int64
	BytesOut atomic.Int64 // initiator -> target
	BytesIn  atomic.Int64 // target -> initiator
	CASFail  atomic.Int64
}

// TotalBytes reports BytesOut + BytesIn.
func (s *Stats) TotalBytes() int64 { return s.BytesOut.Load() + s.BytesIn.Load() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Ops.Store(0)
	s.WQEs.Store(0)
	s.RPCs.Store(0)
	s.BytesOut.Store(0)
	s.BytesIn.Store(0)
	s.CASFail.Store(0)
}

// QP is a queue pair connecting an initiator to one target node. It is safe
// for concurrent use, but idiomatic usage gives each worker its own QP (as
// on real hardware); the shared contention point is the target NIC meter.
type QP struct {
	cfg   *sim.Config
	node  *Node
	stats *Stats
}

// Connect creates a queue pair to the target node. stats may be nil.
func Connect(cfg *sim.Config, node *Node, stats *Stats) *QP {
	if stats == nil {
		stats = &Stats{}
	}
	return &QP{cfg: cfg, node: node, stats: stats}
}

// Node returns the target node.
func (q *QP) Node() *Node { return q.node }

// Config returns the substrate config the queue pair was built on.
func (q *QP) Config() *sim.Config { return q.cfg }

// Stats returns the stats sink attached to this QP.
func (q *QP) Stats() *Stats { return q.stats }

func (q *QP) alive() error {
	if q.node.Failed() {
		return ErrNodeFailed
	}
	return nil
}

// Opcode selects the one-sided operation a Verb performs.
type Opcode uint8

const (
	// OpWrite posts Data to Addr (completes in the NIC domain, not the
	// persistence domain — see Write).
	OpWrite Opcode = iota
	// OpRead reads len(Data) bytes at Addr into Data; on a PM node it is
	// a flushing read.
	OpRead
	// OpCAS compares the 8 bytes at Addr with Old and installs New on
	// match; the outcome lands in Swapped.
	OpCAS
	// OpFAA adds Add to the 8 bytes at Addr; the new value lands in Val.
	OpFAA
	// OpLoad reads the 8 bytes at Addr word-atomically into Val; on a PM
	// node it is a flushing read.
	OpLoad
)

// Verb is one work-queue entry of a doorbell-batched submission. Result
// fields (Val, Swapped) are filled in by PostN.
type Verb struct {
	Op       Opcode
	Addr     uint64
	Data     []byte // OpWrite payload / OpRead destination
	Old, New uint64 // OpCAS operands
	Add      uint64 // OpFAA operand

	Val     uint64 // result: OpFAA new value, OpLoad loaded value
	Swapped bool   // result: OpCAS outcome
}

func (v *Verb) wireBytes() int {
	switch v.Op {
	case OpWrite, OpRead:
		return len(v.Data)
	default:
		return 8
	}
}

// post is the single choke point every one-sided verb goes through: one
// liveness check, one trace span, one fault-injection decision, and one
// NIC charge per doorbell, however many WQEs ride it. Cost is the RDMA
// base + the summed transfer terms + a per-WQE marginal term for entries
// beyond the first; verbs then apply in order.
func (q *QP) post(c *sim.Clock, site string, verbs []Verb) error {
	if err := q.alive(); err != nil {
		return err
	}
	if len(verbs) == 0 {
		return nil
	}
	// Admission gate on the target NIC: under overload the gate sheds the
	// doorbell before any fault decision or meter charge.
	if err := q.cfg.Admit(c, site, q.node.NIC); err != nil {
		return err
	}
	op := q.cfg.Begin(c, site)
	o := q.cfg.Inject(c, site)
	if o.Drop || o.Torn {
		op.End(0)
		return o.FaultErr()
	}
	total := 0
	for i := range verbs {
		total += verbs[i].wireBytes()
	}
	cost := q.cfg.RDMA.Cost(total)
	if n := len(verbs); n > 1 {
		cost += time.Duration(n-1) * q.cfg.RDMAPerWQE
	}
	q.node.NIC.Charge(c, cost)
	q.stats.Ops.Add(1)
	q.stats.WQEs.Add(int64(len(verbs)))
	var moved int64
	for i := range verbs {
		v := &verbs[i]
		switch v.Op {
		case OpWrite:
			q.stats.BytesOut.Add(int64(len(v.Data)))
			if err := q.node.Mem.Write(v.Addr, v.Data); err != nil {
				op.End(moved)
				return err
			}
			if o.Duplicate {
				// Duplicated delivery: one-sided writes are idempotent,
				// so the repeat lands harmlessly on the same bytes.
				if err := q.node.Mem.Write(v.Addr, v.Data); err != nil {
					op.End(moved)
					return err
				}
			}
			if q.node.PM {
				q.node.pending.Add(int64(len(v.Data)))
			}
			moved += int64(len(v.Data))
		case OpRead:
			q.stats.BytesIn.Add(int64(len(v.Data)))
			if q.node.PM {
				q.drainPending(c)
			}
			if err := q.node.Mem.Read(v.Addr, v.Data); err != nil {
				op.End(moved)
				return err
			}
			moved += int64(len(v.Data))
		case OpCAS:
			q.stats.BytesOut.Add(8)
			ok, err := q.node.Mem.CAS64(v.Addr, v.Old, v.New)
			if err != nil {
				op.End(moved)
				return err
			}
			v.Swapped = ok
			if !ok {
				q.stats.CASFail.Add(1)
			}
			moved += 8
		case OpFAA:
			q.stats.BytesOut.Add(8)
			nv, err := q.node.Mem.Add64(v.Addr, v.Add)
			if err != nil {
				op.End(moved)
				return err
			}
			v.Val = nv
			moved += 8
		case OpLoad:
			q.stats.BytesIn.Add(8)
			if q.node.PM {
				q.drainPending(c)
			}
			nv, err := q.node.Mem.Load64(v.Addr)
			if err != nil {
				op.End(moved)
				return err
			}
			v.Val = nv
			moved += 8
		}
	}
	op.End(moved)
	// A node that crashed while the doorbell was in flight completes it
	// with an error: a DRAM node's wipe may have raced the transfer, so
	// the bytes read are not the node's data.
	return q.alive()
}

// PostN posts verbs as one doorbell-batched submission with a single
// completion poll. Within the batch a read verb still acts as the flushing
// read for writes posted before it.
func (q *QP) PostN(c *sim.Clock, verbs []Verb) error {
	return q.post(c, "rdma.post", verbs)
}

// Read issues a one-sided READ of len(p) bytes at addr. On a PM node a
// READ also acts as the flushing read of Kalia et al.: it forces all prior
// posted writes on this connection into the persistence domain.
func (q *QP) Read(c *sim.Clock, addr uint64, p []byte) error {
	v := [1]Verb{{Op: OpRead, Addr: addr, Data: p}}
	return q.post(c, "rdma.read", v[:])
}

// Write issues a one-sided WRITE. The verb completes when the data is in
// the target NIC/PCIe domain: on a PM node that does NOT imply persistence
// (the central trap of §2.3) — the posted bytes are tracked as pending
// until a flushing Read or a server-side flush drains them.
func (q *QP) Write(c *sim.Clock, addr uint64, p []byte) error {
	v := [1]Verb{{Op: OpWrite, Addr: addr, Data: p}}
	return q.post(c, "rdma.write", v[:])
}

// drainPending charges the PM write-bandwidth cost of moving pending bytes
// into the persistence domain and clears the gauge.
func (q *QP) drainPending(c *sim.Clock) {
	n := q.node.pending.Swap(0)
	if n > 0 {
		// Bandwidth term only: the base PM latency overlaps with the
		// network round trip that triggered the drain.
		m := sim.LatencyModel{BytesPerSec: q.cfg.PMWrite.BytesPerSec}
		c.Advance(m.Cost(int(n)))
	}
}

// WritePersist performs the one-sided persistent write recipe: WRITE
// followed by a dependent zero-byte flushing READ. It costs two round trips
// plus the PM drain — which is exactly why Kalia et al. found the
// two-sided CallPersist faster.
func (q *QP) WritePersist(c *sim.Clock, addr uint64, p []byte) error {
	op := q.cfg.Begin(c, "rdma.writepersist")
	if err := q.Write(c, addr, p); err != nil {
		op.End(0)
		return err
	}
	if err := q.alive(); err != nil {
		op.End(0)
		return err
	}
	q.node.NIC.Charge(c, q.cfg.RDMA.Cost(0))
	q.stats.Ops.Add(1)
	q.drainPending(c)
	op.End(int64(len(p)))
	return nil
}

// CAS issues a one-sided 8-byte compare-and-swap at addr, returning whether
// it installed new. Failed CASes are counted — retry storms under
// contention are a first-class effect in RACE/Sherman experiments.
func (q *QP) CAS(c *sim.Clock, addr uint64, old, new uint64) (bool, error) {
	v := [1]Verb{{Op: OpCAS, Addr: addr, Old: old, New: new}}
	err := q.post(c, "rdma.cas", v[:])
	return v[0].Swapped, err
}

// FAA issues a one-sided fetch-and-add, returning the new value.
func (q *QP) FAA(c *sim.Clock, addr uint64, delta uint64) (uint64, error) {
	v := [1]Verb{{Op: OpFAA, Addr: addr, Add: delta}}
	err := q.post(c, "rdma.faa", v[:])
	return v[0].Val, err
}

// Load64 issues an 8-byte one-sided READ (word-atomic).
func (q *QP) Load64(c *sim.Clock, addr uint64) (uint64, error) {
	v := [1]Verb{{Op: OpLoad, Addr: addr}}
	err := q.post(c, "rdma.read", v[:])
	return v[0].Val, err
}

// WriteOp is one element of a doorbell-batched write.
type WriteOp struct {
	Addr uint64
	Data []byte
}

// WriteBatch posts several writes with one doorbell (Sherman's batching
// optimization): a single base latency, summed transfer terms, in-order
// application. It is PostN specialized to writes, kept for callers that
// batch homogeneous page/log writes.
func (q *QP) WriteBatch(c *sim.Clock, ops []WriteOp) error {
	if len(ops) == 0 {
		if err := q.alive(); err != nil {
			return err
		}
		return nil
	}
	verbs := make([]Verb, len(ops))
	for i, op := range ops {
		verbs[i] = Verb{Op: OpWrite, Addr: op.Addr, Data: op.Data}
	}
	return q.post(c, "rdma.write", verbs)
}

// Call performs a two-sided RPC: SEND the request, execute the named
// handler on the target CPU, receive the response. One network round trip
// plus remote CPU dispatch.
func (q *QP) Call(c *sim.Clock, name string, req []byte) ([]byte, error) {
	if err := q.alive(); err != nil {
		return nil, err
	}
	// Admission gate for two-sided RPCs (the memnode control plane rides
	// this path): shed before the fault decision and the NIC/CPU charges.
	if err := q.cfg.Admit(c, "rdma.call", q.node.NIC); err != nil {
		return nil, err
	}
	op := q.cfg.Begin(c, "rdma.call")
	if o := q.cfg.Inject(c, "rdma.call"); o.Drop || o.Torn {
		op.End(0)
		return nil, o.FaultErr()
	}
	h, err := q.node.handler(name)
	if err != nil {
		op.End(0)
		return nil, err
	}
	q.stats.RPCs.Add(1)
	q.stats.BytesOut.Add(int64(len(req)))
	q.node.NIC.Charge(c, q.cfg.RDMARPC.Cost(len(req)))
	q.node.CPU.Charge(c, q.cfg.RemoteCPU)
	resp := h(c, req)
	q.stats.BytesIn.Add(int64(len(resp)))
	// Response transfer (bandwidth term only; the round trip base was
	// charged with the request).
	m := sim.LatencyModel{BytesPerSec: q.cfg.RDMARPC.BytesPerSec}
	c.Advance(m.Cost(len(resp)))
	op.End(int64(len(req) + len(resp)))
	if err := q.alive(); err != nil {
		// The node crashed while the handler ran (see post).
		return nil, err
	}
	return resp, nil
}

// CallPersist is the two-sided persistence path: the RPC handler on the PM
// node writes the payload and flushes it inside the persistence domain
// before replying. One round trip + remote CPU + PM write.
func (q *QP) CallPersist(c *sim.Clock, addr uint64, p []byte) error {
	if err := q.alive(); err != nil {
		return err
	}
	if err := q.cfg.Admit(c, "rdma.call", q.node.NIC); err != nil {
		return err
	}
	op := q.cfg.Begin(c, "rdma.call")
	if o := q.cfg.Inject(c, "rdma.call"); o.Drop || o.Torn {
		op.End(0)
		return o.FaultErr()
	}
	q.stats.RPCs.Add(1)
	q.stats.BytesOut.Add(int64(len(p)))
	q.node.NIC.Charge(c, q.cfg.RDMARPC.Cost(len(p)))
	q.node.CPU.Charge(c, q.cfg.RemoteCPU)
	if err := q.node.Mem.Write(addr, p); err != nil {
		op.End(0)
		return err
	}
	// Server-side flush: bandwidth-bound PM write (the base PM latency
	// overlaps with composing the reply), no extra round trip.
	drain := sim.LatencyModel{BytesPerSec: q.cfg.PMWrite.BytesPerSec}
	q.node.CPU.Charge(c, drain.Cost(len(p)))
	op.End(int64(len(p)))
	return nil
}
