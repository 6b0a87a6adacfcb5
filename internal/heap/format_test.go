package heap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/disagglab/disagg/internal/page"
)

// refFormatPage is the Insert-based construction FormatPage must match
// byte for byte: one zero record per slot, inserted in slot order.
func refFormatPage(l Layout, id page.ID) *page.Page {
	p := page.New(l.PageSize)
	base := uint64(id) * uint64(l.PerPage)
	zero := make([]byte, l.ValSize)
	for s := 0; s < l.PerPage; s++ {
		if _, err := p.Insert(l.EncodeRecord(base+uint64(s), zero)); err != nil {
			panic(fmt.Sprintf("reference FormatPage overflow: %v", err))
		}
	}
	return p
}

// refWriteValue is the Update-based write WriteValue must match, in bytes
// and in errors.
func refWriteValue(l Layout, data []byte, key uint64, val []byte, lsn uint64) error {
	p := page.Wrap(data)
	if err := p.Update(l.SlotOf(key), l.EncodeRecord(key, val)); err != nil {
		return err
	}
	if lsn > 0 {
		p.SetLSN(lsn)
	}
	return nil
}

var (
	gridPageSizes = []int{64, 128, 4096, 8192, 16384}
	gridValSizes  = []int{1, 8, 96, 1000}
	gridPageIDs   = []page.ID{0, 1, 7, 1 << 20}
)

func TestFormatPageMatchesInsertReference(t *testing.T) {
	layouts := 0
	for _, ps := range gridPageSizes {
		for _, vs := range gridValSizes {
			l, err := NewLayout(ps, vs)
			if err != nil {
				continue // value does not fit this page
			}
			layouts++
			for _, id := range gridPageIDs {
				got, want := l.FormatPage(id).Bytes(), refFormatPage(l, id).Bytes()
				if !bytes.Equal(got, want) {
					t.Fatalf("layout %+v page %d: FormatPage differs from the Insert reference", l, id)
				}
				if err := page.Wrap(got).Validate(); err != nil {
					t.Fatalf("layout %+v page %d: %v", l, id, err)
				}
			}
		}
	}
	if layouts < 15 {
		t.Fatalf("only %d valid layouts in the grid", layouts)
	}
}

func TestFormatPageAllocs(t *testing.T) {
	l, _ := NewLayout(8192, 96)
	if n := testing.AllocsPerRun(100, func() { l.FormatPage(3) }); n > 2 {
		t.Fatalf("FormatPage made %.0f allocs per page, want at most 2", n)
	}
}

// TestWriteValueMatchesUpdate runs WriteValue and the Update-based
// reference on twin pages and requires the same bytes and the same error.
func TestWriteValueMatchesUpdate(t *testing.T) {
	check := func(name string, l Layout, data []byte, key uint64, val []byte, lsn uint64) {
		t.Helper()
		ref := append([]byte(nil), data...)
		got, want := l.WriteValue(data, key, val, lsn), refWriteValue(l, ref, key, val, lsn)
		if !errors.Is(got, want) {
			t.Fatalf("%s: error %v, reference %v", name, got, want)
		}
		if !bytes.Equal(data, ref) {
			t.Fatalf("%s: page bytes differ from the reference", name)
		}
	}
	for _, ps := range gridPageSizes {
		for _, vs := range gridValSizes {
			l, err := NewLayout(ps, vs)
			if err != nil {
				continue
			}
			vals := map[string][]byte{
				"empty":    nil,
				"short":    bytes.Repeat([]byte{0xA5}, (vs+1)/2),
				"exact":    bytes.Repeat([]byte{0x5A}, vs),
				"overlong": bytes.Repeat([]byte{0xC3}, vs+7),
			}
			for _, id := range gridPageIDs {
				base := uint64(id) * uint64(l.PerPage)
				data := l.FormatPage(id).Bytes()
				for name, v := range vals {
					for _, s := range []int{0, l.PerPage - 1} {
						check(fmt.Sprintf("%+v page %d slot %d %s", l, id, s, name), l, data, base+uint64(s), v, uint64(s)+9)
					}
				}
				// lsn 0 leaves the page LSN alone.
				check("lsn 0", l, data, base, vals["exact"], 0)
			}
		}
	}

	l, _ := NewLayout(4096, 96)
	data := l.FormatPage(0).Bytes()
	val := []byte("payload")

	// A deleted slot: both paths fail with ErrBadSlot.
	if err := page.Wrap(data).Delete(3); err != nil {
		t.Fatal(err)
	}
	check("deleted slot", l, data, 3, val, 5)

	// A slot beyond the directory: a page holding fewer slots.
	small := page.New(l.PageSize)
	for s := 0; s < 2; s++ {
		if _, err := small.Insert(l.EncodeRecord(uint64(s), nil)); err != nil {
			t.Fatal(err)
		}
	}
	check("slot out of range", l, small.Bytes(), 5, val, 5)

	// Cells that are not the fixed size take the Update path: a shorter
	// cell grows into fresh space, a longer one shrinks in place.
	odd := page.New(l.PageSize)
	for _, n := range []int{12, 200} {
		if _, err := odd.Insert(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	check("short cell", l, odd.Bytes(), 0, val, 5)
	check("long cell", l, odd.Bytes(), 1, val, 6)

	// A short cell on a full page: Update's ErrPageFull.
	full := page.New(64)
	if _, err := full.Insert(make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	for full.FreeSpace() > 0 {
		if _, err := full.Insert(make([]byte, full.FreeSpace())); err != nil {
			t.Fatal(err)
		}
	}
	tight, _ := NewLayout(64, 16)
	check("page full", tight, full.Bytes(), 0, val, 5)
}

func TestWriteValueZeroAlloc(t *testing.T) {
	l, _ := NewLayout(8192, 96)
	data := l.FormatPage(0).Bytes()
	val := bytes.Repeat([]byte{1}, 40)
	key, lsn := uint64(0), uint64(0)
	n := testing.AllocsPerRun(1000, func() {
		key = (key + 1) % uint64(l.PerPage)
		lsn++
		if err := l.WriteValue(data, key, val, lsn); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("WriteValue on a formatted page made %.1f allocs, want 0", n)
	}
}

func BenchmarkFormatPage(b *testing.B) {
	l, _ := NewLayout(8192, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.FormatPage(page.ID(i))
	}
}

func BenchmarkWriteValue(b *testing.B) {
	l, _ := NewLayout(8192, 96)
	data := l.FormatPage(0).Bytes()
	val := bytes.Repeat([]byte{1}, 96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.WriteValue(data, uint64(i%l.PerPage), val, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
