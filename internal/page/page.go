// Package page implements the slotted database page used by every storage
// engine in the repository: a fixed-size byte buffer with a header (page
// LSN, slot count, free-space pointer), a slot directory growing from the
// front, and cells growing from the back.
//
// Layout:
//
//	[0:8)   pageLSN
//	[8:10)  slot count
//	[10:12) free-space offset (start of the cell area)
//	[12:..) slot directory, 4 bytes per slot: offset(2) | length(2)
//	[..:N)  cells
//
// Deleted slots keep their directory entry with length 0xFFFF so slot
// numbers remain stable; Compact reclaims their cell space.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// DefaultSize is the page size used by the engines unless configured.
const DefaultSize = 8192

// ID identifies a page within a table or database.
type ID uint64

const (
	headerSize  = 12
	slotSize    = 4
	deletedMark = 0xFFFF
)

// Common page errors.
var (
	ErrPageFull    = errors.New("page: full")
	ErrBadSlot     = errors.New("page: bad slot")
	ErrCellTooBig  = errors.New("page: cell larger than page")
	ErrCorruptPage = errors.New("page: corrupt")
)

// Page wraps a byte buffer with slotted-page accessors. The zero value is
// not usable; call New or Wrap.
type Page struct {
	buf []byte
}

// New allocates and formats an empty page of the given size.
func New(size int) *Page {
	if size < headerSize+slotSize {
		size = DefaultSize
	}
	p := &Page{buf: make([]byte, size)}
	p.setFreeOff(uint16(size))
	return p
}

// Wrap interprets an existing buffer as a page without validation. Use
// Validate when the buffer came from an untrusted medium.
func Wrap(buf []byte) *Page { return &Page{buf: buf} }

// Bytes returns the underlying buffer (the page's serialized form).
func (p *Page) Bytes() []byte { return p.buf }

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.buf) }

// LSN returns the page LSN (the LSN of the last log record applied).
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[0:8]) }

// SetLSN records the LSN of the last applied log record.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[0:8], lsn) }

// NumSlots returns the size of the slot directory (including deleted slots).
func (p *Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.buf[8:10])) }

func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.buf[8:10], uint16(n)) }

func (p *Page) freeOff() uint16 { return binary.LittleEndian.Uint16(p.buf[10:12]) }

func (p *Page) setFreeOff(off uint16) { binary.LittleEndian.PutUint16(p.buf[10:12], off) }

func (p *Page) slotAt(i int) (off, length uint16) {
	base := headerSize + i*slotSize
	return binary.LittleEndian.Uint16(p.buf[base:]), binary.LittleEndian.Uint16(p.buf[base+2:])
}

func (p *Page) setSlot(i int, off, length uint16) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], length)
}

// FreeSpace reports the bytes available for one new cell (accounting for
// its slot directory entry).
func (p *Page) FreeSpace() int {
	free := int(p.freeOff()) - (headerSize + p.NumSlots()*slotSize) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert appends a cell and returns its slot number. Deleted slots are
// reused. Returns ErrPageFull when the cell does not fit even after the
// directory entry is accounted for.
func (p *Page) Insert(cell []byte) (int, error) {
	if len(cell) >= deletedMark {
		return 0, ErrCellTooBig
	}
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if _, l := p.slotAt(i); l == deletedMark {
			slot = i
			break
		}
	}
	need := len(cell)
	if slot == -1 {
		need += slotSize
	}
	if int(p.freeOff())-(headerSize+p.NumSlots()*slotSize) < need {
		return 0, ErrPageFull
	}
	newOff := p.freeOff() - uint16(len(cell))
	copy(p.buf[newOff:], cell)
	p.setFreeOff(newOff)
	if slot == -1 {
		slot = p.NumSlots()
		p.setNumSlots(slot + 1)
	}
	p.setSlot(slot, newOff, uint16(len(cell)))
	return slot, nil
}

// NewFixed builds a page of the given size holding n cells of cellSize
// bytes each, byte for byte as n Inserts of such cells into New(size)
// would leave it: slot i points at the cell ending where cell i-1 begins,
// the first ending at the page's end. fill writes each cell's contents,
// in slot order, into zeroed bytes. The errors are those the Inserts
// would return.
func NewFixed(size, n, cellSize int, fill func(slot int, cell []byte)) (*Page, error) {
	p := New(size)
	if n <= 0 {
		return p, nil
	}
	if cellSize >= deletedMark {
		return nil, ErrCellTooBig
	}
	free := int(p.freeOff())
	if headerSize+n*(slotSize+cellSize) > free {
		return nil, ErrPageFull
	}
	for i := 0; i < n; i++ {
		off := free - (i+1)*cellSize
		p.setSlot(i, uint16(off), uint16(cellSize))
		fill(i, p.buf[off:off+cellSize])
	}
	p.setNumSlots(n)
	p.setFreeOff(uint16(free - n*cellSize))
	return p, nil
}

// Cell returns the cell stored in the given slot. The returned slice
// aliases the page buffer; callers must copy before retaining it.
func (p *Page) Cell(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, ErrBadSlot
	}
	off, l := p.slotAt(slot)
	if l == deletedMark {
		return nil, ErrBadSlot
	}
	if int(off)+int(l) > len(p.buf) {
		return nil, ErrCorruptPage
	}
	return p.buf[off : off+l], nil
}

// Update replaces the cell in slot. Same-size updates are done in place;
// growing updates append a new copy (leaving a hole that Compact reclaims).
func (p *Page) Update(slot int, cell []byte) error {
	if slot < 0 || slot >= p.NumSlots() {
		return ErrBadSlot
	}
	off, l := p.slotAt(slot)
	if l == deletedMark {
		return ErrBadSlot
	}
	if len(cell) <= int(l) {
		copy(p.buf[off:], cell)
		p.setSlot(slot, off, uint16(len(cell)))
		return nil
	}
	if len(cell) >= deletedMark {
		return ErrCellTooBig
	}
	if int(p.freeOff())-(headerSize+p.NumSlots()*slotSize) < len(cell) {
		if p.Compact()-len(cell) < 0 {
			return ErrPageFull
		}
		off, _ = p.slotAt(slot)
	}
	newOff := p.freeOff() - uint16(len(cell))
	copy(p.buf[newOff:], cell)
	p.setFreeOff(newOff)
	p.setSlot(slot, newOff, uint16(len(cell)))
	return nil
}

// Delete marks the slot deleted (slot numbers remain stable).
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return ErrBadSlot
	}
	if _, l := p.slotAt(slot); l == deletedMark {
		return ErrBadSlot
	}
	p.setSlot(slot, 0, deletedMark)
	return nil
}

// Compact rewrites live cells to eliminate holes and returns the resulting
// free space.
func (p *Page) Compact() int {
	type live struct {
		slot int
		data []byte
	}
	var cells []live
	for i := 0; i < p.NumSlots(); i++ {
		off, l := p.slotAt(i)
		if l == deletedMark {
			continue
		}
		d := make([]byte, l)
		copy(d, p.buf[off:off+l])
		cells = append(cells, live{i, d})
	}
	off := uint16(len(p.buf))
	for _, cl := range cells {
		off -= uint16(len(cl.data))
		copy(p.buf[off:], cl.data)
		p.setSlot(cl.slot, off, uint16(len(cl.data)))
	}
	p.setFreeOff(off)
	return p.FreeSpace()
}

// Validate performs structural checks on a page read from an untrusted
// medium (torn RDMA reads, crash-recovered storage).
func (p *Page) Validate() error {
	if len(p.buf) < headerSize {
		return ErrCorruptPage
	}
	n := p.NumSlots()
	if headerSize+n*slotSize > len(p.buf) {
		return fmt.Errorf("%w: %d slots exceed page", ErrCorruptPage, n)
	}
	if int(p.freeOff()) > len(p.buf) || int(p.freeOff()) < headerSize+n*slotSize {
		return fmt.Errorf("%w: free offset %d", ErrCorruptPage, p.freeOff())
	}
	for i := 0; i < n; i++ {
		off, l := p.slotAt(i)
		if l == deletedMark {
			continue
		}
		if int(off) < int(p.freeOff()) || int(off)+int(l) > len(p.buf) {
			return fmt.Errorf("%w: slot %d [%d,%d)", ErrCorruptPage, i, off, off+l)
		}
	}
	return nil
}

// LiveCells returns the number of non-deleted cells.
func (p *Page) LiveCells() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if _, l := p.slotAt(i); l != deletedMark {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the page.
func (p *Page) Clone() *Page {
	cp := make([]byte, len(p.buf))
	copy(cp, p.buf)
	return &Page{buf: cp}
}
