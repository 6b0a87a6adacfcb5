package main

import (
	"runtime"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
	"github.com/disagglab/disagg/internal/sim/profile"
	"github.com/disagglab/disagg/internal/workload"
)

// OLTP sizing shared by oltp-log and oltp-mem: 200k keys of 96 B values
// pack 75 to an 8 KiB page, so the table spans 2,667 pages against
// 256-frame compute caches (9.6%).
const (
	oltpKeys      = 200_000
	oltpValSize   = 96
	oltpCache     = 256
	oltpClients   = 8
	oltpCkptEvery = 500 // committed operations between checkpoint rounds
)

var oltpLayout = func() heap.Layout {
	l, err := heap.NewLayout(8192, oltpValSize)
	if err != nil {
		panic(err)
	}
	return l
}()

func oltpPages() int { return int(oltpLayout.NumPages(oltpKeys)) }

// engineSpec builds one engine on a fresh substrate.
type engineSpec struct {
	name  string
	build func(cfg *sim.Config) engine.Engine
}

// logEngines are the log-shipping and baseline engines of oltp-log.
var logEngines = []engineSpec{
	{"aurora", func(cfg *sim.Config) engine.Engine { return aurora.New(cfg, oltpLayout, oltpCache, 1) }},
	{"socrates", func(cfg *sim.Config) engine.Engine { return socrates.New(cfg, oltpLayout, oltpCache, 2) }},
	{"taurus", func(cfg *sim.Config) engine.Engine { return taurus.New(cfg, oltpLayout, oltpCache, 3) }},
	{"polardb", func(cfg *sim.Config) engine.Engine { return polardb.New(cfg, oltpLayout, oltpCache) }},
	{"monolithic", func(cfg *sim.Config) engine.Engine { return monolithic.New(cfg, oltpLayout, oltpCache) }},
	{"sharednothing", func(cfg *sim.Config) engine.Engine { return sharednothing.New(cfg, oltpLayout, 4) }},
	{"snowflake-kv", func(cfg *sim.Config) engine.Engine { return snowflake.NewKV(cfg, oltpLayout) }},
}

// memEngines are the remote-memory engines of oltp-mem; their remote
// pools hold every page of the table.
var memEngines = []engineSpec{
	{"legobase", func(cfg *sim.Config) engine.Engine { return legobase.New(cfg, oltpLayout, oltpCache, oltpPages()) }},
	{"serverless", func(cfg *sim.Config) engine.Engine {
		return serverless.New(cfg, oltpLayout, 2, oltpCache, oltpPages())
	}},
	{"pilotdb", func(cfg *sim.Config) engine.Engine { return pilotdb.New(cfg, oltpLayout, oltpCache, pilotdb.Pilot()) }},
}

// runEngine runs one engine's share of an OLTP round: build, closed-loop
// timed phase with checkpoints, then the accounting and read-back checks.
func runEngine(rc *roundCtx, spec engineSpec, mix workload.YCSB, ops int) *unitResult {
	u := &unitResult{name: spec.name, layer: map[string]float64{}}
	cfg := sim.DefaultConfig()
	var prof *profile.Profiler
	opts := engine.RunOpts{Retries: 3}
	if rc.traced {
		cfg.Stats = sim.NewRegistry()
		prof = profile.NewProfiler(spec.name, 4)
		opts.Profile = prof
	}
	clients := newClients(mix, rc.seed, oltpClients)
	shadow := make([]uint64, mix.Keys)
	u.vlat = make([]time.Duration, 0, ops)
	u.host = make([]time.Duration, 0, ops)
	var ckptHost, ckptV []time.Duration
	sinceCkpt := 0
	unitSpan := rc.tr.newID()
	ot := &opTimer{rc: rc, u: u, parent: unitSpan, prof: prof}

	settle()
	h0 := time.Now()
	e := spec.build(cfg)
	u.setup = time.Since(h0)
	cp := engine.Caps(e).Checkpointer
	if cp == nil {
		u.fail("%s: no Checkpointer", spec.name)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	closedLoop(clients, ops, func(cl *client) {
		op := cl.gen.Next()
		var val, got []byte
		var tag uint64
		if !op.Read {
			tag = cl.nextTag()
			val = encodeVal(oltpValSize, op.Key, tag)
		}
		err := ot.do(cl.clk, "engine.Run", func() error {
			return engine.Run(e, cl.clk, opts, func(tx engine.Tx) error {
				if op.Read {
					v, err := tx.Read(op.Key)
					got = v
					return err
				}
				return tx.Write(op.Key, val)
			})
		})
		opID := ot.n
		switch {
		case err != nil:
			u.fail("%s: op %d key %d: %v", spec.name, opID, op.Key, err)
		case op.Read && !checkVal(got, oltpValSize, op.Key, shadow[op.Key]):
			u.fail("%s: op %d read key %d: wrong value", spec.name, opID, op.Key)
		case !op.Read:
			shadow[op.Key] = tag
		}
		if err != nil || cp == nil {
			return
		}
		if sinceCkpt++; sinceCkpt < oltpCkptEvery {
			return
		}
		sinceCkpt = 0
		c0 := cl.clk.Now()
		cs := time.Now()
		cerr := cp.Checkpoint(cl.clk)
		ch := time.Since(cs)
		rc.tr.add(span{Parent: unitSpan, Op: opID, Name: "Checkpointer.Checkpoint", Unit: spec.name,
			host0: cs, host1: cs.Add(ch), V0: int64(c0), V1: int64(cl.clk.Now())})
		ckptHost = append(ckptHost, ch)
		ckptV = append(ckptV, cl.clk.Now()-c0)
		if cerr != nil {
			u.fail("%s: checkpoint after op %d: %v", spec.name, opID, cerr)
		}
	})
	u.timed = time.Since(t0)
	u.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	u.mallocs = ms1.Mallocs - ms0.Mallocs
	rc.tr.add(span{ID: unitSpan, Name: "unit", Unit: spec.name, host0: h0, host1: time.Now(),
		V1: int64(makespan(clients))})

	st := e.Stats()
	u.makespan = makespan(clients)
	u.netBytes = st.NetBytes.Load()
	if a, c, ab, sh := st.Attempts.Load(), st.Commits.Load(), st.Aborts.Load(), st.Shed.Load(); a != c+ab+sh {
		u.fail("%s: Attempts %d != Commits %d + Aborts %d + Shed %d", spec.name, a, c, ab, sh)
	}
	engineLayers(u, e, prof)
	u.ckptHost, u.ckptV = ckptHost, ckptV
	if rc.readback {
		readBack(u, e, shadow)
	}
	return u
}

// readBack reads the whole keyspace, one read-only transaction per page,
// and checks every value against the shadow map.
func readBack(u *unitResult, e engine.Engine, shadow []uint64) {
	c := sim.NewClock()
	per := uint64(oltpLayout.PerPage)
	for lo := uint64(0); lo < uint64(len(shadow)); lo += per {
		hi := min(lo+per, uint64(len(shadow)))
		var bad []uint64
		err := engine.Run(e, c, engine.RunOpts{Retries: 3}, func(tx engine.Tx) error {
			bad = bad[:0]
			for k := lo; k < hi; k++ {
				v, err := tx.Read(k)
				if err != nil {
					return err
				}
				if !checkVal(v, oltpValSize, k, shadow[k]) {
					bad = append(bad, k)
				}
			}
			return nil
		})
		u.attempted += int(hi - lo)
		if err != nil {
			u.fail("%s: read-back of keys [%d,%d): %v", u.name, lo, hi, err)
			continue
		}
		for _, k := range bad {
			u.fail("%s: read-back key %d: wrong value", u.name, k)
		}
	}
}
