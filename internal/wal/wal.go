// Package wal implements the write-ahead log shared by every OLTP engine:
// typed log records with a binary codec, a sequential in-memory log with
// group commit, and ARIES-style redo helpers ("the log is the database" —
// Aurora, §2.1).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// LSN is a log sequence number. LSN 0 is "nil" (no record).
type LSN uint64

// Type enumerates log record kinds.
type Type uint8

// Log record kinds.
const (
	TypeUpdate Type = iota + 1
	TypeCommit
	TypeAbort
	TypeCheckpoint
	TypeInsert
	TypeDelete
)

func (t Type) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one log record. Update/Insert/Delete records carry the page,
// key and images; Commit/Abort/Checkpoint carry only transaction metadata.
type Record struct {
	LSN    LSN
	Type   Type
	TxID   uint64
	PageID uint64
	Key    uint64
	Before []byte // undo image (nil for inserts)
	After  []byte // redo image (nil for deletes)
}

const recordHeader = 8 + 1 + 8 + 8 + 8 + 4 + 4 // lsn type tx page key blen alen

// EncodedSize reports the record's wire size.
func (r *Record) EncodedSize() int { return recordHeader + len(r.Before) + len(r.After) }

// Encode appends the record's wire form to dst and returns the result.
func (r *Record) Encode(dst []byte) []byte {
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(r.LSN))
	hdr[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(hdr[9:], r.TxID)
	binary.LittleEndian.PutUint64(hdr[17:], r.PageID)
	binary.LittleEndian.PutUint64(hdr[25:], r.Key)
	binary.LittleEndian.PutUint32(hdr[33:], uint32(len(r.Before)))
	binary.LittleEndian.PutUint32(hdr[37:], uint32(len(r.After)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Before...)
	dst = append(dst, r.After...)
	return dst
}

// Common codec errors.
var (
	ErrShortRecord = errors.New("wal: short record")
	ErrBadRecord   = errors.New("wal: bad record")
)

// Decode parses one record from p, returning the record and the number of
// bytes consumed.
func Decode(p []byte) (Record, int, error) {
	if len(p) < recordHeader {
		return Record{}, 0, ErrShortRecord
	}
	var r Record
	r.LSN = LSN(binary.LittleEndian.Uint64(p[0:]))
	r.Type = Type(p[8])
	if r.Type < TypeUpdate || r.Type > TypeDelete {
		return Record{}, 0, fmt.Errorf("%w: type %d", ErrBadRecord, p[8])
	}
	r.TxID = binary.LittleEndian.Uint64(p[9:])
	r.PageID = binary.LittleEndian.Uint64(p[17:])
	r.Key = binary.LittleEndian.Uint64(p[25:])
	blen := int(binary.LittleEndian.Uint32(p[33:]))
	alen := int(binary.LittleEndian.Uint32(p[37:]))
	total := recordHeader + blen + alen
	if blen < 0 || alen < 0 || len(p) < total {
		return Record{}, 0, ErrShortRecord
	}
	if blen > 0 {
		r.Before = append([]byte(nil), p[recordHeader:recordHeader+blen]...)
	}
	if alen > 0 {
		r.After = append([]byte(nil), p[recordHeader+blen:total]...)
	}
	return r, total, nil
}

// DecodePrefix parses the longest clean prefix of a record stream,
// tolerating a torn tail: a trailing partial record (short header or
// truncated payload — what a crash mid-append leaves behind) is discarded
// rather than reported as an error. A structurally bad record (invalid
// type byte) still fails: that is corruption, not a crash artifact.
// Returns the records and the number of bytes consumed.
func DecodePrefix(p []byte) ([]Record, int, error) {
	var out []Record
	used := 0
	for len(p) > 0 {
		r, n, err := Decode(p)
		if errors.Is(err, ErrShortRecord) {
			return out, used, nil
		}
		if err != nil {
			return out, used, err
		}
		out = append(out, r)
		p = p[n:]
		used += n
	}
	return out, used, nil
}

// DecodeAll parses a concatenation of records.
func DecodeAll(p []byte) ([]Record, error) {
	var out []Record
	for len(p) > 0 {
		r, n, err := Decode(p)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		p = p[n:]
	}
	return out, nil
}

// ErrTruncated is returned by Replay when the requested range reaches
// below the truncation floor: records there were discarded by a
// checkpoint, so a replay from that point would silently miss updates.
// Callers must restart from a checkpointed page image at or above the
// floor instead.
var ErrTruncated = errors.New("wal: requested range below truncation floor")

// Log is a thread-safe, append-only in-memory log. Durability of appended
// records is the engine's concern (engines ship encoded records to log
// tiers / storage nodes and only then acknowledge commits).
type Log struct {
	mu      sync.Mutex
	records []Record
	next    LSN
	// floor is the lowest LSN guaranteed retained: TruncateBefore(upTo)
	// raises it to upTo. Records below the floor are gone for good.
	floor LSN
}

// NewLog returns an empty log whose first LSN is 1.
func NewLog() *Log { return &Log{next: 1, floor: 1} }

// Append assigns the next LSN to r and stores it, returning the LSN.
func (l *Log) Append(r Record) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.LSN = l.next
	l.next++
	l.records = append(l.records, r)
	return r.LSN
}

// Head returns the next LSN to be assigned.
func (l *Log) Head() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Len reports the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Since returns a copy of all records with LSN > after, in LSN order.
// Since does not check the truncation floor; recovery paths must use
// Replay, which fails loudly instead of yielding a silent partial prefix.
func (l *Log) Since(after LSN) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailLocked(after)
}

// Replay returns all records with LSN > after, failing with ErrTruncated
// when any LSN in (after, floor) has been discarded by a checkpoint — a
// replay from below the truncation floor would otherwise silently miss
// updates and reconstruct a stale prefix as if it were complete.
func (l *Log) Replay(after LSN) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after+1 < l.floor {
		return nil, fmt.Errorf("%w: replay from %d, floor %d", ErrTruncated, after, l.floor)
	}
	return l.tailLocked(after), nil
}

// tailLocked copies the records with LSN > after (nil when there are
// none). Append and TruncateBefore keep l.records sorted by LSN, so the
// tail starts at a binary-searched index and is copied in one exact-size
// allocation.
func (l *Log) tailLocked(after LSN) []Record {
	i := sort.Search(len(l.records), func(i int) bool { return l.records[i].LSN > after })
	if i == len(l.records) {
		return nil
	}
	out := make([]Record, len(l.records)-i)
	copy(out, l.records[i:])
	return out
}

// Floor reports the lowest LSN guaranteed retained (1 when nothing has
// been truncated). Every LSN below the floor has been discarded.
func (l *Log) Floor() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// TruncateBefore discards records with LSN < upTo (checkpointing) and
// raises the truncation floor to upTo. The floor is monotonic: truncating
// below the current floor is a no-op.
func (l *Log) TruncateBefore(upTo LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo <= l.floor {
		return
	}
	l.floor = upTo
	keep := l.records[:0]
	for _, r := range l.records {
		if r.LSN >= upTo {
			keep = append(keep, r)
		}
	}
	l.records = keep
}

// Applier consumes redo records. Page stores and engines implement this.
type Applier interface {
	// Apply applies one redo record; it must be idempotent with respect
	// to page LSNs (apply only if record LSN > page LSN).
	Apply(r Record)
}

// Redo replays records in order into the applier, skipping records at or
// below the given page-LSN floor resolver. pageLSN may be nil, in which
// case all records are applied (the applier is then responsible for
// idempotence).
func Redo(records []Record, pageLSN func(pageID uint64) LSN, apply func(Record)) int {
	applied := 0
	for _, r := range records {
		if r.Type == TypeCommit || r.Type == TypeAbort || r.Type == TypeCheckpoint {
			continue
		}
		if pageLSN != nil && r.LSN <= pageLSN(r.PageID) {
			continue
		}
		apply(r)
		applied++
	}
	return applied
}
