// Package wal implements the write-ahead log.
//
// The on-disk format follows LevelDB: the file is a sequence of 32 KiB
// blocks; each record is split into fragments, each fragment carrying a
// CRC-32C checksum, a length, and a type (full / first / middle / last).
// A block's unusable tail (< 7 bytes) is zero-padded.
//
// Unlike LevelDB, writers are not serialized by the engine: cLSM relaxes
// the single-writer constraint, so records may be appended out of timestamp
// order (§4 of the paper). Every record payload is a batch whose entries
// carry explicit timestamps, so recovery restores the correct order simply
// by replaying entries into the versioned memtable.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"clsm/internal/storage"
)

const (
	// BlockSize is the physical block granularity of the log.
	BlockSize = 32 * 1024
	// headerSize is crc(4) + length(2) + type(1).
	headerSize = 7
)

type recordType byte

const (
	typeZero recordType = iota // padding
	typeFull
	typeFirst
	typeMiddle
	typeLast
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// typeCRC holds the CRC-32C of each one-byte fragment type, the seed every
// frame checksum continues from. A per-fragment []byte{t} would escape
// through the checksum routine and cost a heap allocation per fragment on
// both the write and the recovery path.
var typeCRC = func() (tab [256]uint32) {
	for i := range tab {
		tab[i] = crc32.Checksum([]byte{byte(i)}, castagnoli)
	}
	return tab
}()

// frameCRC is the checksum stored in a fragment header: CRC-32C over the
// type byte followed by the fragment payload.
func frameCRC(t recordType, frag []byte) uint32 {
	return crc32.Update(typeCRC[t], castagnoli, frag)
}

// ErrCorrupt reports a checksum or framing failure in the log.
var ErrCorrupt = errors.New("wal: corrupt record")

// Writer appends records to a log file. It is not safe for concurrent use;
// the engine's Logger (see logger.go) serializes access.
//
// Framing and physical I/O are decoupled for group commit: Queue frames a
// record into an in-memory buffer, FlushQueued pushes everything buffered
// to the file in one Write. Append remains the immediate one-record form
// (Queue + FlushQueued) used by the manifest and tests.
type Writer struct {
	f         storage.File
	blockOff  int // offset within the current block
	buf       []byte
	written   int64
	syncEvery bool
}

// NewWriter wraps a freshly created log file.
func NewWriter(f storage.File, syncEvery bool) *Writer {
	return &Writer{f: f, syncEvery: syncEvery}
}

// Append writes one record (possibly fragmented across blocks).
func (w *Writer) Append(record []byte) error {
	w.Queue(record)
	if err := w.FlushQueued(); err != nil {
		return err
	}
	if w.syncEvery {
		return w.f.Sync()
	}
	return nil
}

// zeroPad is the zero source for block-tail padding (always < headerSize).
var zeroPad [headerSize]byte

// Queue frames one record (possibly fragmented across blocks) into the
// write buffer without touching the file. Call FlushQueued to persist the
// accumulated frames in a single write.
func (w *Writer) Queue(record []byte) {
	first := true
	for {
		avail := BlockSize - w.blockOff
		if avail < headerSize {
			// Pad the block tail with zeros.
			if avail > 0 {
				w.buf = append(w.buf, zeroPad[:avail]...)
				w.written += int64(avail)
			}
			w.blockOff = 0
			avail = BlockSize
		}
		space := avail - headerSize
		frag := record
		if len(frag) > space {
			frag = record[:space]
		}
		record = record[len(frag):]
		var t recordType
		switch {
		case first && len(record) == 0:
			t = typeFull
		case first:
			t = typeFirst
		case len(record) == 0:
			t = typeLast
		default:
			t = typeMiddle
		}
		w.emit(t, frag)
		first = false
		if len(record) == 0 {
			return
		}
	}
}

// emit frames one fragment into the write buffer.
func (w *Writer) emit(t recordType, frag []byte) {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameCRC(t, frag))
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(frag)))
	hdr[6] = byte(t)
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, frag...)
	w.blockOff += headerSize + len(frag)
	w.written += int64(headerSize + len(frag))
}

// Buffered returns the bytes queued but not yet written to the file.
func (w *Writer) Buffered() int { return len(w.buf) }

// FlushQueued writes every queued frame to the file in one Write call.
func (w *Writer) FlushQueued() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return fmt.Errorf("wal: write group: %w", err)
	}
	return nil
}

// Size returns the bytes framed so far (queued frames included).
func (w *Writer) Size() int64 { return w.written }

// Sync pushes queued frames to the file and flushes it to the device.
func (w *Writer) Sync() error {
	if err := w.FlushQueued(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes, syncs, and closes the file.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// Reader iterates the records of a log file, distinguishing three ways a
// log can end:
//
//   - clean EOF: the file ends exactly at a record boundary (possibly
//     followed by zero padding). Next returns io.EOF, TornTail reports
//     false.
//   - torn tail: the final block holds a partial or checksum-failing
//     fragment — the normal result of a crash mid-write or of a device
//     persisting only a prefix of the last write. Iteration stops before
//     the damage with io.EOF and TornTail reports true with the offset of
//     the intact prefix; the caller logically truncates there and
//     continues. With StrictTail set, a torn tail surfaces as ErrCorrupt
//     instead (crash-harness negative control; never set in production).
//   - mid-file corruption: a framing or checksum failure before the final
//     block cannot be crash debris (earlier blocks were fully written) and
//     surfaces as ErrCorrupt.
type Reader struct {
	src    storage.RandomReader
	off    int64
	size   int64
	block  [BlockSize]byte
	blockN int // valid bytes in block
	pos    int // cursor within block
	rec    []byte

	// StrictTail makes a torn tail a hard ErrCorrupt instead of a silent
	// truncation point. Set before the first Next call.
	StrictTail bool

	torn    bool
	tornOff int64
}

// NewReader opens a log file for sequential record iteration.
func NewReader(src storage.RandomReader) *Reader {
	return &Reader{src: src, size: src.Size()}
}

// TornTail reports whether iteration ended at a torn tail rather than a
// clean record boundary, and the file offset of the intact prefix (the
// logical truncation point). Meaningful once Next has returned io.EOF.
func (r *Reader) TornTail() (off int64, torn bool) { return r.tornOff, r.torn }

// tornEOF marks the torn-tail truncation point at file offset off and ends
// iteration: io.EOF normally, ErrCorrupt under StrictTail.
func (r *Reader) tornEOF(off int64) error {
	if !r.torn {
		r.torn, r.tornOff = true, off
	}
	if r.StrictTail {
		return fmt.Errorf("%w: torn tail at offset %d", ErrCorrupt, off)
	}
	return io.EOF
}

// blockStart is the file offset of the currently loaded block.
func (r *Reader) blockStart() int64 { return r.off - int64(r.blockN) }

// finalBlock reports whether the loaded block is the file's last.
func (r *Reader) finalBlock() bool { return r.off >= r.size }

// Next returns the next record, io.EOF at the end of the intact prefix, or
// ErrCorrupt for mid-file corruption. After io.EOF, TornTail tells whether
// the prefix ended cleanly or at crash debris.
func (r *Reader) Next() ([]byte, error) {
	r.rec = r.rec[:0]
	expectContinuation := false
	recStart := int64(-1)
	for {
		fragOff := r.blockStart() + int64(r.pos)
		t, frag, err := r.nextFragment()
		if err != nil {
			if err == io.EOF && expectContinuation {
				// Crash mid-record: the partial record is discarded and the
				// log is truncated at the record's first fragment.
				return nil, r.tornEOF(recStart)
			}
			return nil, err
		}
		if recStart < 0 {
			recStart = fragOff
		}
		switch t {
		case typeFull:
			if expectContinuation {
				return nil, fmt.Errorf("%w: unexpected full fragment", ErrCorrupt)
			}
			return append(r.rec, frag...), nil
		case typeFirst:
			if expectContinuation {
				return nil, fmt.Errorf("%w: unexpected first fragment", ErrCorrupt)
			}
			r.rec = append(r.rec, frag...)
			expectContinuation = true
		case typeMiddle:
			if !expectContinuation {
				return nil, fmt.Errorf("%w: orphan middle fragment", ErrCorrupt)
			}
			r.rec = append(r.rec, frag...)
		case typeLast:
			if !expectContinuation {
				return nil, fmt.Errorf("%w: orphan last fragment", ErrCorrupt)
			}
			return append(r.rec, frag...), nil
		default:
			return nil, fmt.Errorf("%w: unknown fragment type %d", ErrCorrupt, t)
		}
	}
}

func (r *Reader) nextFragment() (recordType, []byte, error) {
	for {
		if r.blockN-r.pos < headerSize {
			// Too few bytes for a header. A legitimate writer zero-pads a
			// block tail, so nonzero residue in the final block is a
			// partially persisted header: a torn tail.
			if r.finalBlock() {
				for i := r.pos; i < r.blockN; i++ {
					if r.block[i] != 0 {
						return 0, nil, r.tornEOF(r.blockStart() + int64(r.pos))
					}
				}
			}
			if err := r.loadBlock(); err != nil {
				return 0, nil, err
			}
			continue
		}
		hdr := r.block[r.pos : r.pos+headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		t := recordType(hdr[6])
		if t == typeZero && length == 0 {
			// Zero padding inside a partially filled final block.
			if err := r.loadBlock(); err != nil {
				return 0, nil, err
			}
			continue
		}
		fragOff := r.blockStart() + int64(r.pos)
		if r.pos+headerSize+length > r.blockN {
			// Fragment extends past the valid data. In the final block that
			// is a write the device cut short (torn tail); earlier it is
			// framing garbage (every non-final block was fully written).
			if r.finalBlock() {
				return 0, nil, r.tornEOF(fragOff)
			}
			return 0, nil, fmt.Errorf("%w: fragment overruns block at offset %d", ErrCorrupt, fragOff)
		}
		frag := r.block[r.pos+headerSize : r.pos+headerSize+length]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		if frameCRC(t, frag) != wantCRC {
			if r.finalBlock() {
				// Checksum failure in the final block: indistinguishable
				// from a torn write, so truncate there (LevelDB does the
				// same). Synced data is never affected — it always lies
				// before the damage in this block.
				return 0, nil, r.tornEOF(fragOff)
			}
			return 0, nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, fragOff)
		}
		r.pos += headerSize + length
		return t, frag, nil
	}
}

func (r *Reader) loadBlock() error {
	if r.off >= r.size {
		return io.EOF
	}
	n, err := r.src.ReadAt(r.block[:], r.off)
	if n == 0 {
		if err == nil || err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wal: read block: %w", err)
	}
	r.off += int64(n)
	r.blockN = n
	r.pos = 0
	return nil
}
