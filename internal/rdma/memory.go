// Package rdma models an RDMA-capable fabric at the verbs level: registered
// memory regions, queue pairs with one-sided READ/WRITE/CAS/FAA and
// two-sided SEND/RECV RPC, doorbell batching, and the persistence semantics
// of remote persistent memory (a one-sided write completes before data
// reaches the persistence domain; a trailing read or a server-side flush is
// required — Kalia et al., §2.3 of the tutorial).
//
// Time is virtual (see internal/sim) but state is real: remote memory is a
// word-atomic byte array, so concurrent compare-and-swap contention, torn
// multi-word reads, and retry storms behave as they do on real hardware.
package rdma

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Remote memory is allocated in chunks of chunkBytes on first write; a
// region costs one pointer per chunk until it is touched. 64 KiB keeps the
// table small (256 KiB of pointers for a 2 GiB region) and lets a page
// transfer resolve its chunk once: an aligned 8 KiB page never straddles
// two.
const (
	chunkShift = 16
	chunkBytes = 1 << chunkShift
	chunkWords = chunkBytes / 8
)

type chunk [chunkWords]uint64

// Memory is a byte-addressable region with word (8-byte) atomicity — the
// same guarantee RDMA NICs give. Bulk reads and writes are performed word
// by word with atomic loads/stores: individual words are never torn, but a
// multi-word transfer can interleave with concurrent writers, exactly like
// a one-sided READ racing a remote writer. Higher layers (RACE, Sherman)
// must — and do — handle that with versions and checksums.
//
// The region is sparse: a chunk is installed by the first write, Store64,
// CAS64 or Add64 that touches it, and a never-written chunk reads as
// zeroes without allocating.
type Memory struct {
	chunks []atomic.Pointer[chunk]
	size   uint64
}

// NewMemory reserves a region of the given size in bytes. No data memory
// is allocated until the region is written.
func NewMemory(size int) *Memory {
	if size < 0 {
		size = 0
	}
	return &Memory{
		chunks: make([]atomic.Pointer[chunk], (size+chunkBytes-1)/chunkBytes),
		size:   uint64(size),
	}
}

// Size reports the usable size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// ErrOutOfBounds reports an access outside the registered region.
type ErrOutOfBounds struct {
	Addr uint64
	Len  int
	Size uint64
}

func (e *ErrOutOfBounds) Error() string {
	return fmt.Sprintf("rdma: access [%d,%d) outside region of %d bytes", e.Addr, e.Addr+uint64(e.Len), e.Size)
}

func (m *Memory) check(addr uint64, n int) error {
	if n < 0 || addr > m.size || uint64(n) > m.size-addr {
		return &ErrOutOfBounds{Addr: addr, Len: n, Size: m.size}
	}
	return nil
}

// install returns chunk i, installing a zeroed one if it is absent. When
// two writers race to install the same chunk the loser drops its copy.
func (m *Memory) install(i uint64) *chunk {
	var fresh *chunk
	for {
		if ch := m.chunks[i].Load(); ch != nil {
			return ch
		}
		if fresh == nil {
			fresh = new(chunk)
		}
		if m.chunks[i].CompareAndSwap(nil, fresh) {
			return fresh
		}
	}
}

// wipe drops every chunk: the region reads as zeroes again.
func (m *Memory) wipe() {
	for i := range m.chunks {
		m.chunks[i].Store(nil)
	}
}

// Read copies len(p) bytes starting at addr into p.
func (m *Memory) Read(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr & (chunkBytes - 1))
		n := min(len(p), chunkBytes-off)
		if ch := m.chunks[addr>>chunkShift].Load(); ch == nil {
			clear(p[:n])
		} else {
			readChunk(ch, off, p[:n])
		}
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// readChunk copies len(p) bytes from byte offset off of ch.
func readChunk(ch *chunk, off int, p []byte) {
	w := off / 8
	if b := off % 8; b != 0 {
		v := atomic.LoadUint64(&ch[w]) >> (8 * b)
		n := min(len(p), 8-b)
		for i := 0; i < n; i++ {
			p[i] = byte(v >> (8 * i))
		}
		p = p[n:]
		w++
	}
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, atomic.LoadUint64(&ch[w]))
		p = p[8:]
		w++
	}
	if len(p) > 0 {
		v := atomic.LoadUint64(&ch[w])
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
}

// Write copies p into the region starting at addr. Partial words at the
// edges are merged with a CAS loop so concurrent writers to adjacent bytes
// in the same word do not clobber each other.
func (m *Memory) Write(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr & (chunkBytes - 1))
		n := min(len(p), chunkBytes-off)
		writeChunk(m.install(addr>>chunkShift), off, p[:n])
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// writeChunk copies p into ch at byte offset off.
func writeChunk(ch *chunk, off int, p []byte) {
	w := off / 8
	if b := off % 8; b != 0 {
		n := min(len(p), 8-b)
		mergeWord(&ch[w], b, p[:n])
		p = p[n:]
		w++
	}
	for len(p) >= 8 {
		atomic.StoreUint64(&ch[w], binary.LittleEndian.Uint64(p))
		p = p[8:]
		w++
	}
	if len(p) > 0 {
		mergeWord(&ch[w], 0, p)
	}
}

// mergeWord CAS-merges the bytes p (fewer than 8) into the word at byte
// offset off, leaving the word's other bytes as they are.
func mergeWord(word *uint64, off int, p []byte) {
	var v uint64
	for i, c := range p {
		v |= uint64(c) << (8 * (off + i))
	}
	mask := (uint64(1)<<(8*len(p)) - 1) << (8 * off)
	for {
		old := atomic.LoadUint64(word)
		if atomic.CompareAndSwapUint64(word, old, old&^mask|v) {
			return
		}
	}
}

// word returns the word at addr (8-byte aligned), installing its chunk if
// install is set; otherwise it returns nil for a never-written chunk.
func (m *Memory) word(addr uint64, install bool) (*uint64, error) {
	if addr%8 != 0 {
		return nil, fmt.Errorf("rdma: atomic op at unaligned address %d", addr)
	}
	if err := m.check(addr, 8); err != nil {
		return nil, err
	}
	i := addr >> chunkShift
	ch := m.chunks[i].Load()
	if ch == nil {
		if !install {
			return nil, nil
		}
		ch = m.install(i)
	}
	return &ch[(addr&(chunkBytes-1))/8], nil
}

// Load64 atomically loads the word at addr (8-byte aligned).
func (m *Memory) Load64(addr uint64) (uint64, error) {
	w, err := m.word(addr, false)
	if w == nil {
		return 0, err
	}
	return atomic.LoadUint64(w), nil
}

// Store64 atomically stores v at addr (8-byte aligned).
func (m *Memory) Store64(addr uint64, v uint64) error {
	w, err := m.word(addr, true)
	if err != nil {
		return err
	}
	atomic.StoreUint64(w, v)
	return nil
}

// CAS64 atomically compares-and-swaps the word at addr.
func (m *Memory) CAS64(addr uint64, old, new uint64) (bool, error) {
	w, err := m.word(addr, true)
	if err != nil {
		return false, err
	}
	return atomic.CompareAndSwapUint64(w, old, new), nil
}

// Add64 atomically adds delta to the word at addr, returning the new value.
func (m *Memory) Add64(addr uint64, delta uint64) (uint64, error) {
	w, err := m.word(addr, true)
	if err != nil {
		return 0, err
	}
	return atomic.AddUint64(w, delta), nil
}
