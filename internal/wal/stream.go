// Socket streams: the entry and seal frames of a segment, travelling over a
// connection instead of resting in a file — the one delta format replication
// tails and live migrations ship between nodes.
//
//	stream := header(kind 2) batch*
//	batch  := recEntry+ recSeal
//
// There is no footer. Entry seq is contiguous from 1 per connection, so the
// checks a segment scan runs (batchScan) are also what refuses a lost batch,
// a batch from a stale connection, a miscounted batch and a diverged one; a
// fresh connection starts again at 1 and is therefore a full resync.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// StreamWriter is the sending half: Append frames entries into the open
// batch, Seal closes it. Construct one per connection and abandon it, with
// the connection, on the first error.
type StreamWriter struct {
	w    io.Writer
	pend batch
	buf  []byte // frames not yet written, behind the header on a fresh connection
	next uint64
}

// streamChunk is how many framed bytes a StreamWriter gathers before writing
// them through: few enough writes to keep small batches in one, early enough
// that the receiver checks and hashes a large batch while its sender is
// still encoding the rest of it.
const streamChunk = 32 << 10

// NewStreamWriter starts a stream on w; the header travels with the first
// frames written.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, buf: appendHeader(nil, kindStream), next: 1}
}

// Append frames one entry into the open batch and returns its sequence
// number — the signature of Log.Append, so one encoder feeds either.
func (sw *StreamWriter) Append(kind Kind, data []byte) (uint64, error) {
	seq := sw.next
	sw.buf = sw.pend.appendEntry(sw.buf, kind, seq, data)
	sw.next++
	if len(sw.buf) < streamChunk {
		return seq, nil
	}
	return seq, sw.flush()
}

func (sw *StreamWriter) flush() error {
	_, err := sw.w.Write(sw.buf)
	sw.buf = sw.buf[:0]
	return err
}

// Seal closes the open batch with its Merkle root, writes everything still
// buffered, and returns the root the receiver will verify.
func (sw *StreamWriter) Seal() (root [HashSize]byte, err error) {
	sw.buf, root, _, _ = sw.pend.appendSeal(sw.buf)
	return root, sw.flush()
}

// StreamReader is the receiving half: one sealed, verified batch at a time.
type StreamReader struct {
	fr      frameReader
	scan    batchScan
	buf     []byte // the current batch's entry payloads, back to back; reused across batches
	ends    []int  // end offset in buf of each entry payload
	entries []Entry
}

// NewStreamReader reads and checks the stream header on r.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: stream: short header: %v", ErrCorrupt, err)
	}
	if err := checkHeader(hdr[:], kindStream); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &StreamReader{fr: frameReader{r: r}, scan: batchScan{next: 1}}, nil
}

// Reserve makes room for n bytes of frames ahead of the next batch, for a
// caller that knows how many are coming — a file of known size — so the
// batch arrives without its buffer growing, copying and zeroing on the way.
func (sr *StreamReader) Reserve(n int) { sr.buf = slices.Grow(sr.buf[:0], n) }

// ReadBatch reads exactly one batch — entry frames up to and including their
// seal, never a byte past it — and returns its entries and Merkle root only
// after the seal verified: a torn, miscounted, out-of-sequence or diverged
// batch is an ErrCorrupt-wrapping error and yields no entries at all. It
// returns io.EOF when the stream ends cleanly between batches. The entries'
// Data alias the reader's buffer and are valid until the next ReadBatch;
// after an error the reader is unusable.
func (sr *StreamReader) ReadBatch() (entries []Entry, root [HashSize]byte, err error) {
	sr.buf, sr.ends = sr.buf[:0], sr.ends[:0]
	for {
		at := len(sr.buf)
		typ, buf, err := sr.fr.next(sr.buf)
		if err == io.EOF && at == 0 {
			return nil, root, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // inside a batch
		}
		if err != nil {
			return nil, root, fmt.Errorf("%w: stream: %v", ErrCorrupt, err)
		}
		switch typ {
		case recEntry:
			if _, err := sr.scan.entry(buf[at:]); err != nil {
				return nil, root, fmt.Errorf("stream: %w", err)
			}
			sr.buf = buf
			sr.ends = append(sr.ends, len(buf))
		case recSeal:
			if _, _, root, err = sr.scan.seal(buf[at:]); err != nil {
				return nil, root, fmt.Errorf("stream: %w", err)
			}
			sr.entries = sr.entries[:0]
			start := 0
			for _, end := range sr.ends {
				p := sr.buf[start:end]
				sr.entries = append(sr.entries, Entry{
					Seq: binary.LittleEndian.Uint64(p[1:9]), Kind: Kind(p[0]), Data: p[entryHdrLen:], Sealed: true,
				})
				start = end
			}
			return sr.entries, root, nil
		default:
			return nil, root, fmt.Errorf("%w: stream: record type %d", ErrCorrupt, typ)
		}
	}
}
