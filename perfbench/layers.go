package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/sim/profile"
)

// engineLayers records an engine's layer counters into u.
func engineLayers(u *unitResult, e engine.Engine, prof *profile.Profiler) {
	st := e.Stats()
	hits, misses := st.CacheHits.Load(), st.CacheMisses.Load()
	if lb, ok := e.(*legobase.Engine); ok {
		// legobase counts its hits in the two-tier cache, not in Stats.
		l, r, s := lb.Tiers.TierStats()
		hits, misses = l, r+s
	}
	u.layer["cache_hits"] = float64(hits)
	u.layer["cache_misses"] = float64(misses)
	u.layer["invalidations"] = float64(st.Invalidations.Load())
	u.layer["stale_hits"] = float64(st.StaleHits.Load())
	if prof != nil {
		addShares(u, prof)
	}
}

// addShares records the unit's virtual-time attribution as a share per
// known component; the shares must sum to 1.
func addShares(u *unitResult, prof *profile.Profiler) {
	a := prof.Attribution()
	var sum float64
	for _, c := range profile.KnownComponents() {
		s := a.Share(c)
		u.layer["vshare."+c] = s
		sum += s
	}
	if a.Total > 0 && math.Abs(sum-1) > 1e-9 {
		u.fail("%s: attribution shares sum to %v over %v", u.name, sum, a.Total)
	}
}

// runTraced measures w with tracing, then covers the other workloads with
// one untraced and one traced round each, so that every per-layer metric
// is reported whichever workload is traced. Per-layer metrics whose layer
// belongs to another workload come from that coverage.
func runTraced(w workloadDef, seed int64, d time.Duration, out string) (result, error) {
	tr := &tracer{}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return result{}, err
	}
	s := measure(w, seed, d, 4, tr)
	pprof.StopCPUProfile()
	all := map[string]*series{w.name: s}
	for _, o := range workloads() {
		if o.name != w.name {
			all[o.name] = measure(o, seed, 0, 2, tr)
		}
	}
	agg := &series{w: w}
	for _, o := range all {
		agg.failed += o.failed
		agg.attempt += o.attempt
		agg.notes = append(agg.notes, o.notes...)
	}
	m := microPhases(func(format string, args ...any) {
		agg.failed++
		agg.notes = append(agg.notes, fmt.Sprintf(format, args...))
	})
	shares, err := cpuShares(cpu.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, b := range hostBuckets {
		m["host.share."+b] = metric{shares[b], "ratio"}
	}
	m["host.trace_overhead"] = metric{traceOverhead(s), "ratio"}
	for k, v := range workloadLayers(all, w.name) {
		m[k] = v
	}
	if out != "" {
		if err := writeArtifacts(out, w.name, seed, tr, cpu.Bytes()); err != nil {
			return result{}, err
		}
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d spans kept, %d dropped\n", w.name, len(tr.spans), tr.dropped)
	return agg.result(m), nil
}

// traceOverhead is the median traced round's timed host time over the
// median warm untraced round's.
func traceOverhead(s *series) float64 {
	timed := func(stats []roundStats) float64 {
		var xs []float64
		for _, st := range stats {
			xs = append(xs, st.timed.Seconds())
		}
		return median(xs)
	}
	return timed(s.tstats) / timed(s.stats[s.warm():])
}

// workloadLayers derives the per-layer metrics measured inside workload
// rounds. Host-side numbers come from the warm untraced rounds (medians of
// each engine's or cell's per-round median), virtual ones from the first
// round (every round repeats them), and vshare from the first traced round
// of the traced workload.
func workloadLayers(all map[string]*series, traced string) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Per engine.
	for _, wn := range []string{"oltp-log", "oltp-mem"} {
		s := all[wn]
		for i, u0 := range s.rounds[0] {
			var p50 []float64
			var mallocs uint64
			ops := 0
			for _, rs := range s.rounds[s.warm():] {
				p50 = append(p50, rs[i].hostP50)
				mallocs += rs[i].mallocs
				ops += rs[i].ops
			}
			p := "engine." + u0.name + "."
			put(p+"host_us_p50", us(median(p50)), "us")
			put(p+"allocs_per_op", float64(mallocs)/float64(ops), "count")
			put(p+"vlat_mean_us", us(meanOf(u0.vlat)), "us")
			put(p+"net_bytes_per_op", float64(u0.netBytes)/float64(u0.committed), "B")
		}
	}

	// Checkpoint rounds of oltp-log.
	var ckHost []time.Duration
	for _, rs := range all["oltp-log"].rounds[all["oltp-log"].warm():] {
		for _, u := range rs {
			ckHost = append(ckHost, u.ckptHost...)
		}
	}
	var nCk int
	var ckV time.Duration
	for _, u := range all["oltp-log"].rounds[0] {
		nCk += len(u.ckptV)
		for _, v := range u.ckptV {
			ckV += v
		}
	}
	put("checkpoint.rounds", float64(nCk), "count")
	put("checkpoint.host_ms_per_round", quantile(ckHost, 0.5)/1e6, "ms")
	put("checkpoint.vstall_us_per_round", us(float64(ckV)/float64(nCk)), "us")

	// Buffer hit ratio on oltp-mem; coherence traffic over both OLTP mixes.
	var hits, misses float64
	for _, u := range all["oltp-mem"].rounds[0] {
		hits += u.layer["cache_hits"]
		misses += u.layer["cache_misses"]
	}
	put("buffer.hit_ratio", hits/(hits+misses), "ratio")
	var inv, stale, ops float64
	for _, wn := range []string{"oltp-log", "oltp-mem"} {
		for _, u := range all[wn].rounds[0] {
			inv += u.layer["invalidations"]
			stale += u.layer["stale_hits"]
			ops += float64(u.ops)
		}
	}
	put("coherence.invalidations_per_op", inv/ops, "count")
	put("coherence.stale_hits_per_op", stale/ops, "count")

	// Index cells: memory-node construction, NIC load at 8 clients, and
	// per-index host cost, tail latency, retries and compactions.
	idx := all["index-sweep"]
	var memNew, setup time.Duration
	var memNews []time.Duration
	for _, rs := range idx.rounds[idx.warm():] {
		for _, u := range rs {
			memNews = append(memNews, u.memNew)
			memNew += u.memNew
			setup += u.setup
		}
	}
	put("memnode.new_512m_ms", quantile(memNews, 0.5)/1e6, "ms")
	put("memnode.setup_share", memNew.Seconds()/setup.Seconds(), "ratio")
	var rho, queued []float64
	for _, spec := range indexes {
		var p50, vmean []float64
		var retries, compactions float64
		for i, u0 := range idx.rounds[0] {
			if !strings.HasPrefix(u0.name, spec.name+"/") {
				continue
			}
			for _, rs := range idx.rounds[idx.warm():] {
				p50 = append(p50, rs[i].hostP50)
			}
			vmean = append(vmean, us(meanOf(u0.vlat)))
			retries += u0.layer["retry_errors"]
			compactions += u0.layer["compactions"]
			if u0.name == spec.name+"/8" {
				rho = append(rho, u0.layer["nic_rho"])
				queued = append(queued, u0.layer["queued_frac"])
			}
		}
		p := "index." + spec.name + "."
		put(p+"host_ns_per_op", median(p50), "ns")
		put(p+"vlat_mean_us", geomean(vmean), "us")
		switch spec.name {
		case "sherman":
			put(p+"retry_errors", retries, "count")
		case "dlsm":
			put(p+"compactions", compactions, "count")
		}
	}
	put("rdma.nic_rho", mean(rho), "ratio")
	put("rdma.queued_frac", mean(queued), "ratio")

	// Virtual-time attribution of the traced workload, engines and cells
	// weighted equally.
	first := all[traced].traced[0]
	for _, c := range profile.KnownComponents() {
		var xs []float64
		for _, u := range first {
			xs = append(xs, u.layer["vshare."+c])
		}
		put("vshare."+c, mean(xs), "ratio")
	}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeArtifacts writes the span dump (one JSON object per line, host
// times relative to the first span) and the CPU profile of a traced run.
func writeArtifacts(dir, workload string, seed int64, tr *tracer, cpu []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".cpu.pprof", cpu, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var t0 time.Time
	if len(tr.spans) > 0 {
		t0 = tr.spans[0].host0
	}
	for _, s := range tr.spans {
		if s.host0.Before(t0) {
			t0 = s.host0
		}
	}
	for _, s := range tr.spans {
		if err := enc.Encode(map[string]any{
			"id": s.ID, "parent": s.Parent, "op": s.Op, "name": s.Name, "unit": s.Unit,
			"host_start_ns": s.host0.Sub(t0).Nanoseconds(), "host_end_ns": s.host1.Sub(t0).Nanoseconds(),
			"v_start_ns": s.V0, "v_end_ns": s.V1,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
