package engine

import (
	"github.com/disagglab/disagg/internal/buffer"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

// ReadCached reads key's value from its heap page through pool, loading
// the page on a miss. A validated hit reads the value straight out of the
// cached frame (the validated probe makes a hit atomic with coherence
// validation, and a stale frame is counted as a miss). The access is
// counted as a cache hit or miss in st.
func ReadCached(c *sim.Clock, pool *buffer.Pool, l heap.Layout, key uint64, st *Stats) ([]byte, error) {
	var val []byte
	hit, err := pool.Lookup(c, l.PageOf(key), func(data []byte) (err error) {
		val, err = l.ReadValue(data, key)
		return err
	})
	if hit {
		st.CacheHits.Add(1)
	} else {
		st.CacheMisses.Add(1)
	}
	return val, err
}
