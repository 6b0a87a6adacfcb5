package main

import (
	"runtime"
	"time"

	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/cluster"
	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/history"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/memnode"
	"github.com/disagglab/disagg/internal/page"
	"github.com/disagglab/disagg/internal/rdma"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/txn"
	"github.com/disagglab/disagg/internal/wal"
)

// microBatches is how many timed batches each micro-phase runs; a phase
// reports the median batch.
const microBatches = 5

// nsPerOp times n calls of fn per batch and returns the median batch's
// host nanoseconds per call.
func nsPerOp(n int, fn func()) float64 {
	xs := make([]float64, microBatches)
	for b := range xs {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// allocsPerOp counts heap allocations per call of fn over n calls.
func allocsPerOp(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// microPhases times the public entry point of each substrate layer on its
// own, on a fresh substrate with one client, and returns the per-layer
// metrics they define. failed collects calls that returned an error.
func microPhases(fail func(format string, args ...any)) map[string]metric {
	m := map[string]metric{}
	ns := func(name string, n int, fn func()) { m[name] = metric{nsPerOp(n, fn), "ns"} }
	check := func(what string, err error) {
		if err != nil {
			fail("micro %s: %v", what, err)
		}
	}
	cfg := sim.DefaultConfig()
	c := sim.NewClock()

	// rdma: one-sided verbs on a memory node, and a two-sided call.
	pool := memnode.New(cfg, "micro", 1<<20)
	qp := pool.Connect(nil)
	small, page8k := make([]byte, 256), make([]byte, 8192)
	ns("rdma.read_256_ns", 20_000, func() { check("rdma read", qp.Read(c, 0, small)) })
	ns("rdma.read_8k_ns", 5_000, func() { check("rdma read", qp.Read(c, 8192, page8k)) })
	ns("rdma.write_8k_ns", 5_000, func() { check("rdma write", qp.Write(c, 65536, page8k)) })
	word := uint64(0)
	ns("rdma.cas_ns", 20_000, func() {
		ok, err := qp.CAS(c, 128, word, word+1)
		check("rdma cas", err)
		if !ok {
			fail("micro rdma cas: lost against no competitor")
		}
		word++
	})
	node := rdma.NewNode(cfg, "rpc", 4096)
	node.Handle("echo", func(_ *sim.Clock, req []byte) []byte { return req })
	rpc := rdma.Connect(cfg, node, nil)
	req := make([]byte, 64)
	ns("rdma.call_ns", 20_000, func() {
		_, err := rpc.Call(c, "echo", req)
		check("rdma call", err)
	})

	// sim: the cost-accounting primitives every substrate call goes through.
	meter := sim.NewMeter(4)
	ns("sim.meter_charge_ns", 100_000, func() { meter.Charge(c, time.Microsecond) })
	ns("sim.begin_end_ns", 100_000, func() { cfg.Begin(c, "rdma.micro").End(64) })
	b := sim.NewBatcher(cfg, "micro.batch", sim.BatchPolicy{MaxItems: 1},
		func(_ *sim.Clock, items []int, out []int) error { copy(out, items); return nil })
	ns("sim.batcher_submit_ns", 100_000, func() {
		_, err := b.Submit(c, 1)
		check("batcher submit", err)
	})

	// buffer: hits on a warm page of a buffer pool.
	bp := buffer.NewPool(cfg, 16, func(_ *sim.Clock, id page.ID) ([]byte, error) {
		return oltpLayout.FormatPage(id).Bytes(), nil
	}, nil)
	_, err := bp.Get(c, 1)
	check("buffer warm", err)
	ns("buffer.get_hit_ns", 20_000, func() {
		_, err := bp.Get(c, 1)
		check("buffer get", err)
	})
	peek := func() {
		if _, ok := bp.Peek(c, 1); !ok {
			fail("micro buffer peek: miss on a warm page")
		}
	}
	ns("buffer.peek_hit_ns", 20_000, peek)
	m["buffer.peek_hit_allocs"] = metric{allocsPerOp(20_000, peek), "count"}

	// wal: appends, and copying a fixed-length tail.
	log := wal.NewLog()
	rec := wal.Record{Type: wal.TypeUpdate, TxID: 1, PageID: 1, Key: 1, After: make([]byte, oltpValSize)}
	ns("wal.append_ns", 40_000, func() { log.Append(rec) })
	const tail = 1000
	tailLog := wal.NewLog()
	for i := 0; i < tail; i++ {
		tailLog.Append(rec)
	}
	m["wal.since_ns_per_record"] = metric{nsPerOp(200, func() {
		if len(tailLog.Since(0)) != tail {
			fail("micro wal since: wrong tail length")
		}
	}) / tail, "ns"}

	// txn: an uncontended exclusive lock, acquired and released.
	lt := txn.NewLockTable()
	ns("txn.lock_ns", 100_000, func() {
		check("lock acquire", lt.Acquire(c, 1, 42, txn.Exclusive, txn.DefaultAcquire))
		lt.Unlock(1, 42, txn.Exclusive)
	})

	// cluster, history, profile: one routed read, one recorded op, one
	// profiled transaction.
	fleet := cluster.New(cluster.Spec{Name: "monolithic", New: func(int) engine.Engine {
		return monolithic.New(cfg, oltpLayout, 64)
	}}, c, 1)
	read := func(tx engine.Tx) error { _, err := tx.Read(7); return err }
	ns("cluster.fleet_run_ns", 20_000, func() { check("fleet run", fleet.Run(c, 7, cluster.RunOpts{}, read)) })
	rec2 := history.NewRecorder()
	ns("history.record_ns_per_op", 20_000, func() {
		a := rec2.Begin(0, 0).NewAttempt(c.Now())
		a.Read(7, 1, c.Now())
		a.Write(7, 2, c.Now())
		a.Finish(history.Committed, c.Now(), 1, nil)
	})
	prof := profile.NewProfiler("micro", 4)
	ns("profile.txn_ns", 20_000, func() {
		t := prof.Begin(c)
		sp := c.StartSpan("rdma.micro")
		c.Advance(time.Microsecond)
		c.FinishSpan(sp, 0)
		t.End(nil)
	})

	// engine: a one-key write commit on each engine, on a warm cache.
	for _, spec := range append(append([]engineSpec(nil), logEngines...), memEngines...) {
		e := spec.build(sim.DefaultConfig())
		ec := sim.NewClock()
		val := encodeVal(oltpValSize, 7, 1)
		write := func() {
			check(spec.name+" commit", engine.Run(e, ec, engine.RunOpts{}, func(tx engine.Tx) error { return tx.Write(7, val) }))
		}
		write()
		m["engine."+spec.name+".commit_us"] = metric{nsPerOp(200, write) / 1e3, "us"}
	}
	return m
}
