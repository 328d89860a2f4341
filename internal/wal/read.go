// Reading, recovery scanning, and integrity verification. Everything here
// operates on closed files or sequential streams outside the segment write
// lock — the walsafe analyzer enforces that no read or seek ever happens
// under it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
	size      int64 // bytes scanned from the start (== file size when clean)
	sealedEnd int64 // offset just past the last seal or footer (or header)
	headerOK  bool
	footer    bool

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

// scanSegmentFull reads one segment front to back: framing and CRCs by
// frameReader, entry-sequence continuity, seal counts and Merkle roots by
// batchScan (the checks a socket stream runs too), footer consistency here. With keep it also retains decoded entries. On errTorn the
// returned scan is still valid up to the tear.
func scanSegmentFull(path string, keep bool) (*segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return &segScan{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	sc := &segScan{}
	if fi, err := f.Stat(); err == nil {
		sc.size = fi.Size()
	}
	name := filepath.Base(path)
	fr := frameReader{r: bufio.NewReaderSize(f, 64<<10)}

	var hdr [headerLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return sc, fmt.Errorf("%w: %s: short header", errTorn, name)
	}
	if err := checkHeader(hdr[:], kindSeg); err != nil {
		return sc, fmt.Errorf("%s: %w", name, err)
	}
	sc.headerOK = true
	off := int64(headerLen)
	sc.sealedEnd = off

	var bs batchScan
	for {
		// Each frame gets its own payload allocation, so a kept entry can
		// hold a view of it.
		typ, payload, err := fr.next(nil)
		if err == io.EOF {
			break // clean end at a frame boundary
		}
		if err != nil {
			// A recoverable tear: the pending entry count rides along so
			// recovery can report exactly what it drops.
			sc.unsealedEntries = len(bs.leaves)
			return sc, fmt.Errorf("%s at %d: %w", name, off, err)
		}
		frameEnd := off + frameOverhead + int64(len(payload))

		switch typ {
		case recEntry:
			seq, err := bs.entry(payload)
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
			sc.sealedEnd = frameEnd
		case recFooter:
			if len(payload) != footerPayLen {
				return sc, fmt.Errorf("%w: %s at %d: footer size %d", ErrCorrupt, name, off, len(payload))
			}
			if len(bs.leaves) != 0 {
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
			sc.sealedEnd = frameEnd
			if _, _, err := fr.next(nil); err != io.EOF {
				return sc, fmt.Errorf("%w: %s: data after footer", ErrCorrupt, name)
			}
			return sc, nil
		default:
			return sc, fmt.Errorf("%w: %s at %d: unknown record type %d", ErrCorrupt, name, off, typ)
		}
		off = frameEnd
	}
	sc.unsealedEntries = len(bs.leaves)
	return sc, nil
}

// hasTrailingFooter reports whether the file ends in a CRC-valid footer
// frame. A crash tears the end of a segment, so a tear with a valid footer
// still in place behind it is mid-file damage to a finalized segment — data
// corruption, never recoverable truncation.
func hasTrailingFooter(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	const flen = frameOverhead + footerPayLen
	if fi.Size() < headerLen+flen {
		return false
	}
	var buf [flen]byte
	if _, err := f.ReadAt(buf[:], fi.Size()-flen); err != nil {
		return false
	}
	if buf[0] != recFooter || binary.LittleEndian.Uint32(buf[1:5]) != footerPayLen {
		return false
	}
	crc := crc32.Checksum(buf[:flen-4], castagnoli)
	return crc == binary.LittleEndian.Uint32(buf[flen-4:])
}

// Dump replays every decodable entry in dir, in sequence order, through fn.
// Unsealed tail entries (possible only when the WAL was not reopened after
// a crash) are delivered with Sealed=false; a torn tail ends the dump
// cleanly. Structural corruption anywhere else, or an error from fn, aborts.
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
		case errors.Is(scanErr, errTorn) && i == len(names)-1 &&
			!hasTrailingFooter(filepath.Join(dir, name)):
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
