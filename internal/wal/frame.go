// The frame layer a segment file and a socket stream share: building entry
// and seal frames over a pending batch of Merkle leaves (batch), reading
// CRC-checked frames back — off a stream as they arrive (frameReader) or in
// place from bytes already in memory (frameAt) — and checking what the
// frames claim (batchScan). Nothing here knows where the bytes go to or come
// from.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// appendHeader appends the 8-byte header of a segment or a socket stream.
func appendHeader(dst []byte, kind uint16) []byte {
	dst = append(dst, walMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, walVersion)
	return binary.LittleEndian.AppendUint16(dst, kind)
}

// checkHeader validates a header against the kind the reader serves: a
// segment header on a socket, or a stream header in a WAL directory, is
// corruption, not a variant.
func checkHeader(hdr []byte, kind uint16) error {
	if string(hdr[:4]) != walMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != walVersion {
		return fmt.Errorf("%w: version %d", ErrVersion, v)
	}
	if k := binary.LittleEndian.Uint16(hdr[6:8]); k != kind {
		return fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, k, kind)
	}
	return nil
}

// appendFrame appends one framed record around a copy of payload.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	at := len(dst)
	dst = append(dst, typ, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[at+1:], uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], castagnoli))
}

// batch is the writer's pending (unsealed) batch: one leaf per entry frame
// built since the last seal.
type batch struct {
	leaves      [][HashSize]byte
	first, last uint64 // entry seq range of the pending leaves
	bytes       int64  // entry payload bytes pending
}

// appendEntry appends the recEntry frame of (kind, seq, data) to dst and adds
// its leaf to the batch. Kind, seq and data are laid straight into dst: the
// entry payload exists only as a sub-slice of the frame it travels in.
func (b *batch) appendEntry(dst []byte, kind Kind, seq uint64, data []byte) []byte {
	at := len(dst)
	dst = append(dst, recEntry, 0, 0, 0, 0, byte(kind))
	binary.LittleEndian.PutUint32(dst[at+1:], uint32(entryHdrLen+len(data)))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, data...)
	payload := dst[at+5:]
	if len(b.leaves) == 0 {
		b.first = seq
	}
	b.last = seq
	b.leaves = append(b.leaves, HashLeaf(payload))
	b.bytes += int64(len(payload))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], castagnoli))
}

// appendSeal appends the recSeal frame that closes the pending batch — its
// seq range, entry count and Merkle root — and empties the batch.
func (b *batch) appendSeal(dst []byte) (out []byte, root [HashSize]byte, first, last uint64) {
	root = Root(b.leaves)
	first, last = b.first, b.last
	var pay [sealPayLen]byte
	binary.LittleEndian.PutUint64(pay[0:8], first)
	binary.LittleEndian.PutUint64(pay[8:16], last)
	binary.LittleEndian.PutUint32(pay[16:20], uint32(len(b.leaves)))
	copy(pay[20:], root[:])
	*b = batch{leaves: b.leaves[:0]}
	return appendFrame(dst, recSeal, pay[:]), root, first, last
}

// readStep is the most a frame's payload buffer reserves ahead of the bytes
// that have actually arrived: the largest first step of an empty buffer.
const readStep = 64 << 10

// frameReader reads CRC-checked frames off r with reads of exactly the
// frame's length, so nothing past a frame is ever consumed.
type frameReader struct {
	r   io.Reader
	pre [5]byte
}

// next reads one frame and appends its payload to dst. It returns io.EOF when
// r ends cleanly at a frame boundary and an errTorn-wrapping error for a
// short frame, an implausible length or a CRC mismatch. dst grows only when
// arrived bytes have filled it, to twice its capacity (an empty one to at
// most readStep), so a length prefix alone cannot reserve memory its sender
// never fills, and a batch read frame by frame into one buffer costs about
// twice its size in allocations rather than append's sum of 1.25× steps.
func (fr *frameReader) next(dst []byte) (typ byte, out []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.pre[:]); err != nil {
		if err == io.EOF {
			return 0, dst, io.EOF
		}
		return 0, dst, fmt.Errorf("%w: short frame head: %v", errTorn, err)
	}
	n := binary.LittleEndian.Uint32(fr.pre[1:])
	if n > maxRecordLen {
		return 0, dst, fmt.Errorf("%w: implausible record length %d", errTorn, n)
	}
	at := len(dst)
	for want := int(n) + 4; want > 0; {
		if len(dst) == cap(dst) {
			dst = append(make([]byte, 0, max(2*cap(dst), min(want, readStep))), dst...)
		}
		step := min(want, cap(dst)-len(dst))
		dst = dst[:len(dst)+step]
		if _, err := io.ReadFull(fr.r, dst[len(dst)-step:]); err != nil {
			return 0, dst[:at], fmt.Errorf("%w: short payload: %v", errTorn, err)
		}
		want -= step
	}
	end := len(dst) - 4
	crc := crc32.Update(crc32.Checksum(fr.pre[:], castagnoli), castagnoli, dst[at:end])
	if crc != binary.LittleEndian.Uint32(dst[end:]) {
		return 0, dst[:at], fmt.Errorf("%w: crc mismatch", errTorn)
	}
	return fr.pre[0], dst[:end], nil
}

// frameAt parses the frame at the start of b in place and returns its type,
// its payload (a sub-slice of b) and its length in b. It returns io.EOF for
// an empty b and classifies damage exactly as frameReader.next does: a short
// head, an implausible length, a short payload or a CRC mismatch is an
// errTorn-wrapping error.
func frameAt(b []byte) (typ byte, payload []byte, n int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, io.EOF
	}
	if len(b) < 5 {
		return 0, nil, 0, fmt.Errorf("%w: short frame head: %v", errTorn, io.ErrUnexpectedEOF)
	}
	size := binary.LittleEndian.Uint32(b[1:5])
	if size > maxRecordLen {
		return 0, nil, 0, fmt.Errorf("%w: implausible record length %d", errTorn, size)
	}
	end := 5 + int(size)
	if len(b) < end+4 {
		return 0, nil, 0, fmt.Errorf("%w: short payload: %v", errTorn, io.ErrUnexpectedEOF)
	}
	if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return 0, nil, 0, fmt.Errorf("%w: crc mismatch", errTorn)
	}
	return b[0], b[5:end], end + 4, nil
}

// batchScan is the reader's mirror of batch: it checks entry-sequence
// continuity, and each seal's range, count and Merkle root against the
// entries read since the previous seal. Its errors wrap ErrCorrupt — no
// crash tears a frame into a sequence gap or a wrong root.
//
// Where the leaves are hashed follows from where the batch is. A socket
// reader's batch arrives a frame at a time, so entry hashes each leaf while
// the rest of the batch is still in flight. A segment is read whole, so
// hold only keeps each payload and the seal hashes the batch on every core
// at once (hashLeaves).
type batchScan struct {
	leaves [][HashSize]byte // leaves of the pending batch hashed by entry
	held   [][]byte         // payloads of the pending batch kept by hold
	first  uint64           // first entry seq of the pending batch
	// next is the only entry seq acceptable next. Zero accepts any: a segment
	// may begin anywhere in the log, a socket stream begins at 1.
	next uint64
}

// entry checks one entry and hashes its leaf now.
func (bs *batchScan) entry(payload []byte) (seq uint64, err error) {
	if seq, err = bs.check(payload); err == nil {
		bs.leaves = append(bs.leaves, HashLeaf(payload))
	}
	return seq, err
}

// hold checks one entry and keeps payload, which must not change before the
// seal, to hash there with the rest of its batch.
func (bs *batchScan) hold(payload []byte) (seq uint64, err error) {
	if seq, err = bs.check(payload); err == nil {
		bs.held = append(bs.held, payload)
	}
	return seq, err
}

// pending counts the entries since the previous seal.
func (bs *batchScan) pending() int { return len(bs.leaves) + len(bs.held) }

func (bs *batchScan) check(payload []byte) (seq uint64, err error) {
	if len(payload) < entryHdrLen {
		return 0, fmt.Errorf("%w: entry too short", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(payload[1:9])
	if bs.next != 0 && seq != bs.next {
		return 0, fmt.Errorf("%w: entry seq %d after %d", ErrCorrupt, seq, bs.next-1)
	}
	bs.next = seq + 1
	if bs.pending() == 0 {
		bs.first = seq
	}
	return seq, nil
}

func (bs *batchScan) seal(payload []byte) (first, last uint64, root [HashSize]byte, err error) {
	if len(payload) != sealPayLen {
		return 0, 0, root, fmt.Errorf("%w: seal size %d", ErrCorrupt, len(payload))
	}
	first = binary.LittleEndian.Uint64(payload[0:8])
	last = binary.LittleEndian.Uint64(payload[8:16])
	count := binary.LittleEndian.Uint32(payload[16:20])
	n := bs.pending()
	if int(count) != n || n == 0 || first != bs.first || last != bs.next-1 {
		return 0, 0, root, fmt.Errorf("%w: seal [%d,%d]x%d does not match pending entries [%d,%d]x%d",
			ErrCorrupt, first, last, count, bs.first, bs.next-1, n)
	}
	copy(root[:], payload[20:])
	bs.leaves = hashLeaves(bs.leaves, bs.held)
	if want := Root(bs.leaves); root != want {
		return 0, 0, root, fmt.Errorf("%w: merkle root mismatch for batch [%d,%d] (stored %s, computed %s)",
			ErrCorrupt, first, last, hexRoot(root), hexRoot(want))
	}
	bs.leaves, bs.held, bs.first = bs.leaves[:0], bs.held[:0], 0
	return first, last, root, nil
}
