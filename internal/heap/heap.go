// Package heap provides the fixed-record heap-table layout shared by the
// OLTP engines: a deterministic key -> (page, slot) mapping over slotted
// pages, plus the record codec. Engines differ in *where* pages live and
// how writes are made durable; they share this layout so that workloads,
// recovery, and experiments are comparable across engines.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/disagglab/disagg/internal/page"
)

// Layout describes a table of fixed-size records packed into slotted pages.
type Layout struct {
	PageSize int
	ValSize  int
	PerPage  int
}

// recordOverhead is the cell header: 8-byte key.
const recordOverhead = 8

// NewLayout computes how many records of valSize fit in a page of pageSize.
func NewLayout(pageSize, valSize int) (Layout, error) {
	if pageSize < 64 || valSize < 1 {
		return Layout{}, fmt.Errorf("heap: bad layout %d/%d", pageSize, valSize)
	}
	cell := recordOverhead + valSize
	// Page header (12) + 4 bytes of slot directory per cell.
	per := (pageSize - 12) / (cell + 4)
	if per < 1 {
		return Layout{}, errors.New("heap: value too large for page")
	}
	return Layout{PageSize: pageSize, ValSize: valSize, PerPage: per}, nil
}

// PageOf maps a key to its page.
func (l Layout) PageOf(key uint64) page.ID { return page.ID(key / uint64(l.PerPage)) }

// SlotOf maps a key to its slot within the page.
func (l Layout) SlotOf(key uint64) int { return int(key % uint64(l.PerPage)) }

// NumPages reports the number of pages needed for n keys.
func (l Layout) NumPages(n uint64) uint64 {
	return (n + uint64(l.PerPage) - 1) / uint64(l.PerPage)
}

// EncodeRecord builds a cell: key followed by the fixed-size value
// (padded/truncated to ValSize).
func (l Layout) EncodeRecord(key uint64, val []byte) []byte {
	cell := make([]byte, recordOverhead+l.ValSize)
	binary.LittleEndian.PutUint64(cell, key)
	copy(cell[recordOverhead:], val)
	return cell
}

// DecodeRecord splits a cell into key and value.
func (l Layout) DecodeRecord(cell []byte) (uint64, []byte, error) {
	if len(cell) != recordOverhead+l.ValSize {
		return 0, nil, fmt.Errorf("heap: cell size %d, want %d", len(cell), recordOverhead+l.ValSize)
	}
	return binary.LittleEndian.Uint64(cell), cell[recordOverhead:], nil
}

// FormatPage builds a fully populated page for the given page ID: every
// slot holds a zero-value record for its key. Engines use this to
// pre-materialize tables. The page is written in one pass, with the bytes
// of inserting the records in slot order.
func (l Layout) FormatPage(id page.ID) *page.Page {
	base := uint64(id) * uint64(l.PerPage)
	p, err := page.NewFixed(l.PageSize, l.PerPage, recordOverhead+l.ValSize, func(slot int, cell []byte) {
		binary.LittleEndian.PutUint64(cell, base+uint64(slot))
	})
	if err != nil {
		// Layout guarantees fit; a failure here is a bug.
		panic(fmt.Sprintf("heap: FormatPage overflow: %v", err))
	}
	return p
}

// ReadValue extracts the value for key from the page bytes.
func (l Layout) ReadValue(data []byte, key uint64) ([]byte, error) {
	p := page.Wrap(data)
	cell, err := p.Cell(l.SlotOf(key))
	if err != nil {
		return nil, err
	}
	k, v, err := l.DecodeRecord(cell)
	if err != nil {
		return nil, err
	}
	if k != key {
		return nil, fmt.Errorf("heap: page holds key %d at slot for key %d", k, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// WriteValue updates the value for key in the page bytes in place and
// stamps the page LSN. A slot holding a fixed-size cell (every slot of a
// formatted page) is overwritten without allocating; any other slot goes
// through page.Update, with its errors.
func (l Layout) WriteValue(data []byte, key uint64, val []byte, lsn uint64) error {
	p := page.Wrap(data)
	slot := l.SlotOf(key)
	if cell, err := p.Cell(slot); err == nil && len(cell) == recordOverhead+l.ValSize {
		binary.LittleEndian.PutUint64(cell, key)
		v := cell[recordOverhead:]
		clear(v[copy(v, val):])
	} else if err := p.Update(slot, l.EncodeRecord(key, val)); err != nil {
		return err
	}
	if lsn > 0 {
		p.SetLSN(lsn)
	}
	return nil
}
