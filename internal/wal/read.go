// Reading, recovery scanning, and integrity verification. Everything here
// reads whole files or sequential streams outside the segment write lock;
// the writer's appendonly.File has no read method.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// errTorn classifies damage that crash recovery may truncate away: a short
// frame, an implausible length, or a CRC mismatch — the shapes a killed
// writer (or a faultnet byte-budgeted cut) leaves behind. Semantic damage
// (sequence gaps, Merkle mismatches, data after a footer) is ErrCorrupt
// instead: no crash produces it, so nothing should silently discard it.
var errTorn = errors.New("wal: torn frame")

// Entry is one decoded WAL entry.
type Entry struct {
	Seq     uint64
	Kind    Kind
	Data    []byte
	Segment string
	// Sealed reports whether a batch seal covers this entry. After Open's
	// recovery every on-disk entry is sealed; an offline Dump of a crashed
	// WAL can still surface the unsealed tail entries recovery would drop.
	Sealed bool
}

// segScan is the result of one sequential segment scan.
type segScan struct {
	size      int64 // the segment's length in bytes
	sealedEnd int64 // offset just past the last seal or footer (or header)
	headerOK  bool
	footer    bool
	// footerAtEnd reports, for a torn scan, whether the bytes still end in a
	// CRC-valid footer frame. A crash tears the end of a segment, so a tear
	// with a footer in place behind it is mid-file damage to a finalized
	// segment — data corruption, never recoverable truncation.
	footerAtEnd bool

	firstSealed     uint64
	sealedLast      uint64
	sealedEntries   int
	unsealedEntries int
	roots           [][HashSize]byte

	entries []Entry // populated only when keep
}

func scanSegment(path string) (*segScan, error) {
	return scanSegmentFull(path, false)
}

// scanSegmentFull reads one segment whole and scans it (scanSegmentBytes).
func scanSegmentFull(path string, keep bool) (*segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return &segScan{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return scanSegmentBytes(filepath.Base(path), data, keep)
}

// scanSegmentBytes scans one segment's bytes front to back, parsing each
// frame in place: framing and CRCs by frameAt, entry-sequence continuity,
// seal counts and Merkle roots by batchScan (the checks a socket stream runs
// too; each batch is hashed at its seal, on every core), footer consistency
// here. With keep it also retains decoded entries, their Data aliasing data.
// On errTorn the returned scan is still valid up to the tear.
func scanSegmentBytes(name string, data []byte, keep bool) (*segScan, error) {
	sc := &segScan{size: int64(len(data))}
	if len(data) < headerLen {
		return sc, fmt.Errorf("%w: %s: short header", errTorn, name)
	}
	if err := checkHeader(data[:headerLen], kindSeg); err != nil {
		return sc, fmt.Errorf("%s: %w", name, err)
	}
	sc.headerOK = true
	off := headerLen
	sc.sealedEnd = int64(off)

	var bs batchScan
	for {
		typ, payload, n, err := frameAt(data[off:])
		if err == io.EOF {
			break // clean end at a frame boundary
		}
		if err != nil {
			// A recoverable tear: the pending entry count rides along so
			// recovery can report exactly what it drops.
			sc.unsealedEntries = bs.pending()
			sc.footerAtEnd = endsInFooter(data)
			return sc, fmt.Errorf("%s at %d: %w", name, off, err)
		}
		frameEnd := off + n

		switch typ {
		case recEntry:
			seq, err := bs.hold(payload)
			if err != nil {
				return sc, fmt.Errorf("%s at %d: %w", name, off, err)
			}
			if keep {
				sc.entries = append(sc.entries, Entry{
					Seq: seq, Kind: Kind(payload[0]), Data: payload[entryHdrLen:], Segment: name,
				})
			}
		case recSeal:
			first, last, root, err := bs.seal(payload)
			if err != nil {
				return sc, fmt.Errorf("%s at %d: %w", name, off, err)
			}
			sc.roots = append(sc.roots, root)
			if sc.firstSealed == 0 {
				sc.firstSealed = first
			}
			sc.sealedLast = last
			sc.sealedEntries += int(last - first + 1)
			sc.sealedEnd = int64(frameEnd)
		case recFooter:
			if len(payload) != footerPayLen {
				return sc, fmt.Errorf("%w: %s at %d: footer size %d", ErrCorrupt, name, off, len(payload))
			}
			if bs.pending() != 0 {
				return sc, fmt.Errorf("%w: %s at %d: footer over unsealed entries", ErrCorrupt, name, off)
			}
			batches := binary.LittleEndian.Uint32(payload[0:4])
			first := binary.LittleEndian.Uint64(payload[4:12])
			last := binary.LittleEndian.Uint64(payload[12:20])
			var got [HashSize]byte
			copy(got[:], payload[20:])
			if int(batches) != len(sc.roots) || first != sc.firstSealed || last != sc.sealedLast {
				return sc, fmt.Errorf("%w: %s at %d: footer [%d,%d]x%d does not match seals [%d,%d]x%d",
					ErrCorrupt, name, off, first, last, batches, sc.firstSealed, sc.sealedLast, len(sc.roots))
			}
			if want := Root(sc.roots); got != want {
				return sc, fmt.Errorf("%w: %s at %d: segment merkle root mismatch (stored %s, computed %s)",
					ErrCorrupt, name, off, hexRoot(got), hexRoot(want))
			}
			sc.footer = true
			sc.sealedEnd = int64(frameEnd)
			if frameEnd != len(data) {
				return sc, fmt.Errorf("%w: %s: data after footer", ErrCorrupt, name)
			}
			return sc, nil
		default:
			return sc, fmt.Errorf("%w: %s at %d: unknown record type %d", ErrCorrupt, name, off, typ)
		}
		off = frameEnd
	}
	sc.unsealedEntries = bs.pending()
	return sc, nil
}

// endsInFooter reports whether data ends in a CRC-valid footer frame.
func endsInFooter(data []byte) bool {
	const flen = frameOverhead + footerPayLen
	if len(data) < headerLen+flen {
		return false
	}
	typ, _, n, err := frameAt(data[len(data)-flen:])
	return err == nil && typ == recFooter && n == flen
}

// Dump replays every decodable entry in dir, in sequence order, through fn.
// Unsealed tail entries (possible only when the WAL was not reopened after
// a crash) are delivered with Sealed=false; a torn tail ends the dump
// cleanly. Structural corruption anywhere else, or an error from fn, aborts.
// An entry's Data aliases its segment's bytes, read whole, so holding it
// holds that segment in memory.
func Dump(dir string, fn func(Entry) error) error {
	names, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		sc, err := scanSegmentFull(filepath.Join(dir, name), true)
		torn := err != nil && errors.Is(err, errTorn)
		if err != nil && !torn {
			return err
		}
		if torn && i != len(names)-1 {
			return fmt.Errorf("%w: %s is torn but is not the tail segment", ErrCorrupt, name)
		}
		for _, e := range sc.entries {
			e.Sealed = e.Seq <= sc.sealedLast
			if err := fn(e); err != nil {
				return err
			}
		}
		if torn {
			return nil
		}
	}
	return nil
}

// SegmentReport is one segment's verification result.
type SegmentReport struct {
	Name     string `json:"name"`
	Entries  int    `json:"sealed_entries"`
	Unsealed int    `json:"unsealed_entries,omitempty"`
	Batches  int    `json:"batches"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Root     string `json:"root,omitempty"`
	Footer   bool   `json:"footer"`
	Torn     bool   `json:"torn,omitempty"`
	Err      string `json:"error,omitempty"`
}

// Verify re-derives every batch and segment Merkle root in dir from the
// entry payloads and checks them against the stored seals and footers — a
// single flipped payload byte surfaces as a root (or CRC) mismatch on its
// segment. A torn tail on the final segment is reported but is not a
// failure (recovery handles it); everything else non-clean is. The error
// summarizes the first failure; the reports cover every segment regardless.
func Verify(dir string) ([]SegmentReport, error) {
	names, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	var reports []SegmentReport
	var firstErr error
	for i, name := range names {
		sc, scanErr := scanSegmentFull(filepath.Join(dir, name), false)
		r := SegmentReport{
			Name:     name,
			Entries:  sc.sealedEntries,
			Unsealed: sc.unsealedEntries,
			Batches:  len(sc.roots),
			FirstSeq: sc.firstSealed,
			LastSeq:  sc.sealedLast,
			Footer:   sc.footer,
		}
		if len(sc.roots) > 0 {
			r.Root = hexRoot(Root(sc.roots))
		}
		switch {
		case scanErr == nil:
		case errors.Is(scanErr, errTorn) && i == len(names)-1 && !sc.footerAtEnd:
			r.Torn = true
		default:
			r.Err = scanErr.Error()
			if firstErr == nil {
				firstErr = scanErr
			}
		}
		reports = append(reports, r)
	}
	return reports, firstErr
}
