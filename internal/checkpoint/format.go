package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file implements the record layer of the checkpoint format — the
// normative specification lives in ARCHITECTURE.md ("Checkpoint format").
// Summary:
//
//	file   := header record*
//	header := magic "CACK" | version u16le | kind u16le
//	record := type u8 | length u32le | payload … | crc u32le
//
// The CRC is CRC-32C (Castagnoli) over type, length and payload, so a flipped
// bit anywhere in a record — including its framing — is detected before the
// payload reaches a decoder. Files end at a record boundary; trailing
// bytes that do not form a complete record mean a torn write and fail the
// whole file. All integers are little-endian.

// Magic is the 4-byte file signature.
const Magic = "CACK"

// FormatVersion is the current on-disk format version. Readers reject files
// from other versions outright: the format is small enough that migration is
// "take a fresh checkpoint", and silently misparsing a future layout is far
// worse than retraining once. Version 2 replaced the gob session-record
// payload with the fixed layout of codec.go.
const FormatVersion = 2

// File kinds.
const (
	// KindManifest files hold one manifest record describing the checkpoint.
	KindManifest = uint16(1)
	// KindModel files hold one serialized classifier (models.Save payload).
	KindModel = uint16(2)
	// KindSessions files hold one record per persisted session.
	KindSessions = uint16(3)
)

// Record types.
const (
	// RecManifest is the gob-encoded Manifest.
	RecManifest = byte(1)
	// RecModel is a models.Save payload.
	RecModel = byte(2)
	// RecSession is one SessionRecord in the fixed layout of codec.go.
	RecSession = byte(3)
)

// maxRecordLen bounds a single record so a corrupted length field cannot ask
// the reader to allocate gigabytes. Model payloads dominate record size;
// 256 MiB is orders of magnitude above any classifier in the zoo.
const maxRecordLen = 256 << 20

// ErrCorrupt reports a structurally invalid or CRC-failing checkpoint file.
// All corruption errors wrap it, so callers can distinguish "bad file"
// (errors.Is(err, ErrCorrupt)) from I/O failures.
var ErrCorrupt = errors.New("checkpoint: corrupt")

// ErrVersion reports a file written by a different format version.
var ErrVersion = errors.New("checkpoint: unsupported format version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerLen = 4 + 2 + 2

// fileWriter frames records into w.
type fileWriter struct {
	w io.Writer
	// frame is the assembly buffer each encoded session record is framed
	// in, reused across records: one Write and no allocation per session.
	frame []byte
}

// newFileWriter writes the header for the given file kind.
func newFileWriter(w io.Writer, kind uint16) (*fileWriter, error) {
	var hdr [headerLen]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint16(hdr[6:], kind)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &fileWriter{w: w}, nil
}

// writeRecord frames one record: type, length, payload, CRC-32C.
func (fw *fileWriter) writeRecord(typ byte, payload []byte) error {
	if len(payload) > maxRecordLen {
		return fmt.Errorf("checkpoint: record of %d bytes exceeds limit", len(payload))
	}
	var pre [5]byte
	pre[0] = typ
	binary.LittleEndian.PutUint32(pre[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, pre[:])
	crc = crc32.Update(crc, castagnoli, payload)
	var post [4]byte
	binary.LittleEndian.PutUint32(post[:], crc)
	for _, b := range [][]byte{pre[:], payload, post[:]} {
		if _, err := fw.w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// writeSession frames the i-th encoded session record in the frame buffer and
// writes it with a single Write.
func (fw *fileWriter) writeSession(i int, rec []byte) error {
	if len(rec) > maxRecordLen {
		return fmt.Errorf("session record %d: %d bytes exceeds limit", i, len(rec))
	}
	b := append(fw.frame[:0], RecSession, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(rec)))
	b = append(b, rec...)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	fw.frame = b
	if _, err := fw.w.Write(b); err != nil {
		return fmt.Errorf("session record %d: %w", i, err)
	}
	return nil
}

// fileReader validates the header and iterates records.
type fileReader struct {
	r io.Reader
}

// newFileReader checks magic, version and kind before any record is read.
func newFileReader(r io.Reader, wantKind uint16) (*fileReader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, FormatVersion)
	}
	if k := binary.LittleEndian.Uint16(hdr[6:]); k != wantKind {
		return nil, fmt.Errorf("%w: file kind %d, want %d", ErrCorrupt, k, wantKind)
	}
	return &fileReader{r: r}, nil
}

// readRecord returns the next record, io.EOF at a clean end of file, or an
// ErrCorrupt-wrapping error on a CRC mismatch or torn record.
func (fr *fileReader) readRecord() (typ byte, payload []byte, err error) {
	var pre [5]byte
	if _, err := io.ReadFull(fr.r, pre[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean boundary
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(fr.r, pre[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: torn record header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(pre[1:])
	if n > maxRecordLen {
		return 0, nil, fmt.Errorf("%w: record length %d exceeds limit", ErrCorrupt, n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: torn record payload: %v", ErrCorrupt, err)
	}
	var post [4]byte
	if _, err := io.ReadFull(fr.r, post[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: torn record crc: %v", ErrCorrupt, err)
	}
	crc := crc32.Update(0, castagnoli, pre[:])
	crc = crc32.Update(crc, castagnoli, payload)
	if got := binary.LittleEndian.Uint32(post[:]); got != crc {
		return 0, nil, fmt.Errorf("%w: record crc %08x, computed %08x", ErrCorrupt, got, crc)
	}
	return pre[0], payload, nil
}
