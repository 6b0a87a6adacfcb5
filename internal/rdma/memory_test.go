package rdma

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// installed counts the chunks a region has allocated.
func (m *Memory) installed() int {
	n := 0
	for i := range m.chunks {
		if m.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestMemoryMatchesFlatModel drives a sparse region and a flat byte slice
// with the same random operations — unaligned and chunk-straddling bulk
// transfers, word atomics, accesses in the partial last chunk and out of
// bounds — and requires identical results and errors.
func TestMemoryMatchesFlatModel(t *testing.T) {
	const size = 3*chunkBytes + 1000 // the last chunk is partial
	rng := rand.New(rand.NewSource(7))
	// Fresh regions every round keep reads of never-written chunks common.
	for round := 0; round < 20; round++ {
		m := NewMemory(size)
		model := make([]byte, size)
		checkAgainstModel(t, rng, m, model, 1000)
	}
}

// checkAgainstModel applies ops random operations to m and to model, a
// flat copy of m's bytes, and fails on the first difference.
func checkAgainstModel(t *testing.T, rng *rand.Rand, m *Memory, model []byte, ops int) {
	size := len(model)
	inBounds := func(addr uint64, n int) bool { return addr <= uint64(size) && uint64(n) <= uint64(size)-addr }
	// addr picks mostly near chunk boundaries and the region's end.
	addr := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(size + 64))
		case 1:
			return uint64(rng.Intn(4)*chunkBytes+rng.Intn(64)) - 32
		default:
			return uint64(size - rng.Intn(chunkBytes/2))
		}
	}
	for op := 0; op < ops; op++ {
		a := addr()
		switch k := rng.Intn(6); k {
		case 0, 1: // Write / Read of 0..20000 bytes
			n := rng.Intn(20000)
			if rng.Intn(2) == 0 {
				n = rng.Intn(24)
			}
			if k == 0 {
				p := make([]byte, n)
				rng.Read(p)
				err := m.Write(a, p)
				if inBounds(a, n) != (err == nil) {
					t.Fatalf("op %d: Write(%d, %d bytes) err = %v", op, a, n, err)
				}
				if err == nil {
					copy(model[a:], p)
				}
			} else {
				p := bytes.Repeat([]byte{0xa5}, n) // untouched bytes must be cleared
				err := m.Read(a, p)
				if inBounds(a, n) != (err == nil) {
					t.Fatalf("op %d: Read(%d, %d bytes) err = %v", op, a, n, err)
				}
				if err == nil && !bytes.Equal(p, model[a:a+uint64(n)]) {
					t.Fatalf("op %d: Read(%d, %d bytes) differs from the model", op, a, n)
				}
			}
		default: // word atomics, aligned or not
			if rng.Intn(4) != 0 {
				a &^= 7
			}
			ok := a%8 == 0 && inBounds(a, 8)
			var cur uint64
			if ok {
				cur = binary.LittleEndian.Uint64(model[a:])
			}
			v := rng.Uint64()
			var err error
			switch k {
			case 2:
				var got uint64
				got, err = m.Load64(a)
				if err == nil && got != cur {
					t.Fatalf("op %d: Load64(%d) = %x, want %x", op, a, got, cur)
				}
			case 3:
				if err = m.Store64(a, v); err == nil {
					binary.LittleEndian.PutUint64(model[a:], v)
				}
			case 4:
				old := v
				if rng.Intn(2) == 0 {
					old = cur
				}
				var swapped bool
				swapped, err = m.CAS64(a, old, v)
				if err == nil {
					if swapped != (old == cur) {
						t.Fatalf("op %d: CAS64(%d) swapped = %v with old %x, cur %x", op, a, swapped, old, cur)
					}
					if swapped {
						binary.LittleEndian.PutUint64(model[a:], v)
					}
				}
			case 5:
				var got uint64
				got, err = m.Add64(a, v)
				if err == nil {
					if got != cur+v {
						t.Fatalf("op %d: Add64(%d) = %x, want %x", op, a, got, cur+v)
					}
					binary.LittleEndian.PutUint64(model[a:], cur+v)
				}
			}
			if ok != (err == nil) {
				t.Fatalf("op %d: word op %d at %d err = %v", op, k, a, err)
			}
		}
	}
	got := make([]byte, size)
	if err := m.Read(0, got); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("final image differs from the model (err %v)", err)
	}
}

// A never-written region reads as zeroes without allocating or installing
// a chunk.
func TestMemoryUntouchedReadIsFreeAndZero(t *testing.T) {
	m := NewMemory(512 << 20)
	p := make([]byte, 8192)
	for i := range p {
		p[i] = 0xff
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Read(3*chunkBytes-5, p); err != nil {
			t.Fatal(err)
		}
		if v, err := m.Load64(7 * chunkBytes); err != nil || v != 0 {
			t.Fatalf("Load64 = %d, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untouched read allocated %v times per run", allocs)
	}
	if !bytes.Equal(p, make([]byte, len(p))) {
		t.Fatal("untouched read returned non-zero bytes")
	}
	if n := m.installed(); n != 0 {
		t.Fatalf("reads installed %d chunks", n)
	}
	if err := m.Write(chunkBytes-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if n := m.installed(); n != 2 {
		t.Fatalf("a write straddling two chunks installed %d", n)
	}
}

// Goroutines race to install the same fresh chunk through Add64 and CAS64:
// every loser must drop its copy and apply its update to the winner's, so
// no update is lost. Run with -race.
func TestMemoryConcurrentFirstTouch(t *testing.T) {
	const workers, rounds = 8, 50
	for r := 0; r < rounds; r++ {
		m := NewMemory(4 * chunkBytes)
		addAt, casAt := uint64(2*chunkBytes+8), uint64(2*chunkBytes+4096)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if _, err := m.Add64(addAt, 1); err != nil {
					t.Error(err)
				}
				for {
					cur, err := m.Load64(casAt)
					if err != nil {
						t.Error(err)
						return
					}
					if ok, err := m.CAS64(casAt, cur, cur+1); err != nil || ok {
						if err != nil {
							t.Error(err)
						}
						return
					}
				}
			}()
		}
		start.Done()
		wg.Wait()
		a, _ := m.Load64(addAt)
		c, _ := m.Load64(casAt)
		if a != workers || c != workers {
			t.Fatalf("round %d: Add64 total %d, CAS64 total %d, want %d each", r, a, c, workers)
		}
		if n := m.installed(); n != 1 {
			t.Fatalf("round %d: %d chunks installed, want 1", r, n)
		}
	}
}

func BenchmarkNewMemory512M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if NewMemory(512<<20).Size() == 0 {
			b.Fatal("empty region")
		}
	}
}

// benchmarkTransfer times Read or Write of n bytes at offset off into a
// written region (its chunks are installed).
func benchmarkTransfer(b *testing.B, write bool, n int, off uint64) {
	m := NewMemory(1 << 20)
	if err := m.Write(0, make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	p := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if write {
			err = m.Write(off, p)
		} else {
			err = m.Read(off, p)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemoryRead256(b *testing.B)           { benchmarkTransfer(b, false, 256, 4096) }
func BenchmarkMemoryRead256Unaligned(b *testing.B)  { benchmarkTransfer(b, false, 256, 4099) }
func BenchmarkMemoryRead8K(b *testing.B)            { benchmarkTransfer(b, false, 8192, 8192) }
func BenchmarkMemoryRead8KUnaligned(b *testing.B)   { benchmarkTransfer(b, false, 8192, 8195) }
func BenchmarkMemoryWrite256(b *testing.B)          { benchmarkTransfer(b, true, 256, 4096) }
func BenchmarkMemoryWrite256Unaligned(b *testing.B) { benchmarkTransfer(b, true, 256, 4099) }
func BenchmarkMemoryWrite8K(b *testing.B)           { benchmarkTransfer(b, true, 8192, 8192) }
func BenchmarkMemoryWrite8KUnaligned(b *testing.B)  { benchmarkTransfer(b, true, 8192, 8195) }
