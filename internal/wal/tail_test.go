package wal

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// linearTail is the reference for Since and Replay: a full scan keeping
// the records with LSN > after, nil when there are none.
func linearTail(recs []Record, after LSN) []Record {
	var out []Record
	for _, r := range recs {
		if r.LSN > after {
			out = append(out, r)
		}
	}
	return out
}

// TestTailMatchesLinearFilter drives random interleavings of Append and
// TruncateBefore and checks Since and Replay against a linear filter over
// a model of the retained records, including after = 0, after at or past
// Head, and after below the truncation floor.
func TestTailMatchesLinearFilter(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		var model []Record // retained records, in LSN order
		floor := LSN(1)
		for step := 0; step < 200; step++ {
			if rng.Intn(5) == 0 {
				upTo := LSN(rng.Int63n(int64(l.Head()) + 3))
				l.TruncateBefore(upTo)
				if upTo > floor {
					floor = upTo
					model = linearTail(model, upTo-1)
				}
			} else {
				r := Record{Type: TypeUpdate, TxID: uint64(step), Key: rng.Uint64(), After: []byte{byte(step)}}
				r.LSN = l.Append(r)
				model = append(model, r)
			}
			if l.Floor() != floor {
				t.Fatalf("seed %d step %d: floor %d, model %d", seed, step, l.Floor(), floor)
			}
			head := l.Head()
			afters := []LSN{0, head - 1, head, head + 5, LSN(rng.Int63n(int64(head) + 1))}
			if floor > 1 {
				afters = append(afters, floor-2, floor-1, floor)
			}
			for _, after := range afters {
				want := linearTail(model, after)
				if got := l.Since(after); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Since(%d) = %d records, want %d", seed, step, after, len(got), len(want))
				}
				got, err := l.Replay(after)
				if after+1 < floor {
					if !errors.Is(err, ErrTruncated) || got != nil {
						t.Fatalf("seed %d step %d: Replay(%d) below floor %d = (%d records, %v), want ErrTruncated",
							seed, step, after, floor, len(got), err)
					}
					continue
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Replay(%d) = (%d records, %v), want %d", seed, step, after, len(got), err, len(want))
				}
			}
		}
	}
}

// TestTailDoesNotAliasLog checks that a returned tail is the caller's own:
// editing or appending to it leaves the log alone, and later appends or
// truncation of the log leave it alone.
func TestTailDoesNotAliasLog(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(i)})
	}
	snapshot := l.Since(0)

	got := l.Since(3)
	got[0].Key = 999
	_ = append(got, Record{LSN: 11, Type: TypeCommit})
	replayed, err := l.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	replayed[len(replayed)-1].Key = 777
	_ = append(replayed[:2], Record{LSN: 99, Type: TypeAbort})
	if now := l.Since(0); !reflect.DeepEqual(now, snapshot) {
		t.Fatal("editing or appending to a returned tail changed the log")
	}

	held := l.Since(0)
	l.Append(Record{Type: TypeUpdate, Key: 10})
	l.TruncateBefore(6)
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: TypeUpdate, Key: uint64(11 + i)})
	}
	if !reflect.DeepEqual(held, snapshot) {
		t.Fatal("appending to or truncating the log changed a returned tail")
	}
	if len(l.Since(0)) != 11 {
		t.Fatalf("log holds %d records after truncation, want 11", len(l.Since(0)))
	}
}

func BenchmarkLogSince(b *testing.B) {
	const tail = 1000
	l := NewLog()
	for i := 0; i < tail; i++ {
		l.Append(Record{Type: TypeUpdate, TxID: 1, PageID: 1, Key: 1, After: make([]byte, 96)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(l.Since(0)) != tail {
			b.Fatal("wrong tail length")
		}
	}
}
