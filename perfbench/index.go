package main

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strconv"
	"time"

	"github.com/disagglab/disagg/internal/index/bptree"
	"github.com/disagglab/disagg/internal/index/lsm"
	"github.com/disagglab/disagg/internal/index/race"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/workload"
)

// index-sweep sizing: the shape of experiment E11, every cell on a fresh
// 512 MiB memory node.
const (
	indexKeys    = 50_000
	indexRegion  = 512 << 20
	indexOps     = 24_000 // operations per cell, split over its clients
	raceValSize  = 16
	indexKeyBase = 1 // keys are 1..indexKeys (the B+tree reserves 0)
)

var indexClients = []int{1, 2, 4, 8}

// errWrongValue reports a RACE value whose key is not the key looked up.
var errWrongValue = errors.New("race: value of another key")

// dlsmOptions keep memtables small enough that every shard flushes and
// compacts several times per cell.
var dlsmOptions = lsm.Options{Shards: 4, MemtableEntries: 48, CompactAt: 3, RemoteCompaction: true}

// kvClient is the operation surface shared by the three indexes. Values
// are write tags; get reports ok=false for an absent key.
type kvClient interface {
	get(c *sim.Clock, key uint64) (tag uint64, ok bool, err error)
	put(c *sim.Clock, key, tag uint64) error
}

type raceClient struct{ *race.Client }

func (r raceClient) get(c *sim.Clock, key uint64) (uint64, bool, error) {
	v, ok, err := r.Get(c, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	if len(v) != raceValSize || binary.LittleEndian.Uint64(v) != key {
		return 0, true, errWrongValue
	}
	return binary.LittleEndian.Uint64(v[8:]), true, nil
}

func (r raceClient) put(c *sim.Clock, key, tag uint64) error {
	v := make([]byte, raceValSize)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], tag)
	return r.Put(c, key, v)
}

type treeClient struct{ *bptree.Client }

func (t treeClient) get(c *sim.Clock, key uint64) (uint64, bool, error) { return t.Get(c, key) }
func (t treeClient) put(c *sim.Clock, key, tag uint64) error            { return t.Put(c, key, tag) }

type lsmClient struct{ *lsm.Client }

func (l lsmClient) get(c *sim.Clock, key uint64) (uint64, bool, error) { return l.Get(c, key) }
func (l lsmClient) put(c *sim.Clock, key, tag uint64) error            { return l.Put(c, key, tag) }

// indexSpec builds one index on a memory pool and attaches clients to it.
type indexSpec struct {
	name  string
	build func(cfg *sim.Config, pool *memnode.Pool) (attach func(id int, st *rdma.Stats) kvClient, compactions func() int64, err error)
}

var indexes = []indexSpec{
	{"race", func(cfg *sim.Config, pool *memnode.Pool) (func(int, *rdma.Stats) kvClient, func() int64, error) {
		h, err := race.New(cfg, pool, 4, 256)
		if err != nil {
			return nil, nil, err
		}
		return func(id int, st *rdma.Stats) kvClient { return raceClient{h.Attach(uint64(id+1), st)} }, nil, nil
	}},
	{"sherman", func(cfg *sim.Config, pool *memnode.Pool) (func(int, *rdma.Stats) kvClient, func() int64, error) {
		t, err := bptree.New(cfg, pool, bptree.Sherman())
		if err != nil {
			return nil, nil, err
		}
		return func(id int, st *rdma.Stats) kvClient { return treeClient{t.Attach(uint64(id+1), st)} }, nil, nil
	}},
	{"dlsm", func(cfg *sim.Config, pool *memnode.Pool) (func(int, *rdma.Stats) kvClient, func() int64, error) {
		t := lsm.New(cfg, pool, dlsmOptions)
		return func(id int, st *rdma.Stats) kvClient { return lsmClient{t.Attach(st)} }, t.Compactions, nil
	}},
}

// indexMix is YCSB-A over the index keyspace.
var indexMix = workload.YCSB{Keys: indexKeys, ReadFrac: 0.5, Theta: 0.99, ValueSize: raceValSize}

// runIndexCell runs one (index, clients) cell of index-sweep: a fresh
// memory node, the closed-loop timed phase, then a full read-back.
func runIndexCell(rc *roundCtx, spec indexSpec, nClients, ops int) *unitResult {
	name := spec.name + "/" + strconv.Itoa(nClients)
	u := &unitResult{name: name, layer: map[string]float64{}}
	cfg := sim.DefaultConfig()
	var prof *profile.Profiler
	if rc.traced {
		cfg.Stats = sim.NewRegistry()
		prof = profile.NewProfiler(name, 4)
	}
	var stats rdma.Stats
	clients := newClients(indexMix, rc.seed, nClients)
	kvs := make([]kvClient, nClients)
	shadow := make([]uint64, indexKeys)
	u.vlat = make([]time.Duration, 0, ops)
	u.host = make([]time.Duration, 0, ops)
	unitSpan := rc.tr.newID()
	ot := &opTimer{rc: rc, u: u, parent: unitSpan, prof: prof}

	settle()
	h0 := time.Now()
	pool := memnode.New(cfg, "m0", indexRegion)
	memNew := time.Since(h0)
	rc.tr.add(span{Parent: unitSpan, Name: "memnode.New", Unit: name, host0: h0, host1: h0.Add(memNew)})
	attach, compactions, err := spec.build(cfg, pool)
	u.setup = time.Since(h0)
	u.memNew = memNew
	if err != nil {
		u.fail("%s: build: %v", name, err)
		return u
	}
	for i := range kvs {
		kvs[i] = attach(i, &stats)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	closedLoop(clients, ops, func(cl *client) {
		op := cl.gen.Next()
		kv := kvs[cl.id]
		key := op.Key + indexKeyBase
		var tag, got uint64
		var found bool
		name := "index.get"
		if !op.Read {
			tag, name = cl.nextTag(), "index.put"
		}
		err := ot.do(cl.clk, name, func() (err error) {
			ptx := prof.Begin(cl.clk)
			if op.Read {
				got, found, err = kv.get(cl.clk, key)
			} else {
				err = kv.put(cl.clk, key, tag)
			}
			ptx.End(err)
			return err
		})
		opID := ot.n
		want := shadow[op.Key]
		switch {
		case err != nil:
			if errors.Is(err, bptree.ErrRetriesExhausted) {
				u.layer["retry_errors"]++
			}
			u.fail("%s: op %d key %d: %v", u.name, opID, key, err)
		case op.Read && (found != (want != 0) || got != want):
			u.fail("%s: op %d read key %d: got (%d,%v), want %d", u.name, opID, key, got, found, want)
		case !op.Read:
			shadow[op.Key] = tag
		}
	})
	u.timed = time.Since(t0)
	u.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	u.mallocs = ms1.Mallocs - ms0.Mallocs
	u.makespan = makespan(clients)
	u.netBytes = stats.TotalBytes()
	rc.tr.add(span{ID: unitSpan, Name: "unit", Unit: u.name, host0: h0, host1: time.Now(), V1: int64(u.makespan)})
	nic := pool.Node().NIC
	u.layer["nic_rho"] = nic.Utilization(u.makespan)
	u.layer["queued_frac"] = nic.QueuedFraction()
	if compactions != nil {
		u.layer["compactions"] = float64(compactions())
	}
	if prof != nil {
		addShares(u, prof)
	}
	if rc.readback {
		c := sim.NewClock()
		for k := range shadow {
			got, found, err := kvs[0].get(c, uint64(k)+indexKeyBase)
			u.attempted++
			if err != nil || found != (shadow[k] != 0) || got != shadow[k] {
				u.fail("%s: read-back key %d: got (%d,%v,%v), want %d", u.name, k+indexKeyBase, got, found, err, shadow[k])
			}
		}
	}
	return u
}
