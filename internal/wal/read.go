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

// scanSegmentFull reads one segment front to back, checking framing, CRCs,
// entry-sequence continuity, seal counts and Merkle roots, and footer
// consistency. With keep it also retains decoded entries. On errTorn the
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
	br := bufio.NewReaderSize(f, 64<<10)

	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return sc, fmt.Errorf("%w: %s: short header", errTorn, name)
	}
	if string(hdr[:4]) != walMagic {
		return sc, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != walVersion {
		return sc, fmt.Errorf("%w: %s: version %d", ErrVersion, name, v)
	}
	if k := binary.LittleEndian.Uint16(hdr[6:8]); k != kindSeg {
		return sc, fmt.Errorf("%w: %s: kind %d", ErrCorrupt, name, k)
	}
	sc.headerOK = true
	off := int64(headerLen)
	sc.sealedEnd = off

	var (
		pendLeaves [][HashSize]byte
		pendFirst  uint64
		lastEntry  uint64 // last entry seq seen in this segment
	)
	// torn finalizes the scan at a recoverable tear: the pending entry
	// count must ride along so recovery can report exactly what it drops.
	torn := func(format string, args ...any) (*segScan, error) {
		sc.unsealedEntries = len(pendLeaves)
		return sc, fmt.Errorf("%w: "+format, append([]any{errTorn}, args...)...)
	}
	for {
		var pre [5]byte
		b0, err := br.ReadByte()
		if err == io.EOF {
			break // clean end at a frame boundary
		} else if err != nil {
			return torn("%s at %d: %v", name, off, err)
		}
		pre[0] = b0
		if _, err := io.ReadFull(br, pre[1:]); err != nil {
			return torn("%s at %d: short length", name, off)
		}
		typ := pre[0]
		plen := binary.LittleEndian.Uint32(pre[1:5])
		if plen > maxRecordLen {
			return torn("%s at %d: implausible record length %d", name, off, plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return torn("%s at %d: short payload", name, off)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return torn("%s at %d: short crc", name, off)
		}
		crc := crc32.Checksum(pre[:], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(crcBuf[:]) {
			return torn("%s at %d: crc mismatch", name, off)
		}
		frameEnd := off + frameOverhead + int64(plen)

		switch typ {
		case recEntry:
			if len(payload) < entryHdrLen {
				return sc, fmt.Errorf("%w: %s at %d: entry too short", ErrCorrupt, name, off)
			}
			seq := binary.LittleEndian.Uint64(payload[1:9])
			if lastEntry != 0 && seq != lastEntry+1 {
				return sc, fmt.Errorf("%w: %s at %d: entry seq %d after %d", ErrCorrupt, name, off, seq, lastEntry)
			}
			lastEntry = seq
			if len(pendLeaves) == 0 {
				pendFirst = seq
			}
			pendLeaves = append(pendLeaves, HashLeaf(payload))
			if keep {
				// payload is this frame's own allocation, so the entry can
				// keep a view of it.
				sc.entries = append(sc.entries, Entry{
					Seq: seq, Kind: Kind(payload[0]), Data: payload[entryHdrLen:], Segment: name,
				})
			}
		case recSeal:
			if len(payload) != sealPayLen {
				return sc, fmt.Errorf("%w: %s at %d: seal size %d", ErrCorrupt, name, off, len(payload))
			}
			first := binary.LittleEndian.Uint64(payload[0:8])
			last := binary.LittleEndian.Uint64(payload[8:16])
			count := binary.LittleEndian.Uint32(payload[16:20])
			if int(count) != len(pendLeaves) || len(pendLeaves) == 0 ||
				first != pendFirst || last != lastEntry {
				return sc, fmt.Errorf("%w: %s at %d: seal [%d,%d]x%d does not match pending entries [%d,%d]x%d",
					ErrCorrupt, name, off, first, last, count, pendFirst, lastEntry, len(pendLeaves))
			}
			want := Root(pendLeaves)
			var got [HashSize]byte
			copy(got[:], payload[20:])
			if got != want {
				return sc, fmt.Errorf("%w: %s at %d: merkle root mismatch for batch [%d,%d] (stored %s, computed %s)",
					ErrCorrupt, name, off, first, last, hexRoot(got), hexRoot(want))
			}
			sc.roots = append(sc.roots, got)
			if sc.firstSealed == 0 {
				sc.firstSealed = first
			}
			sc.sealedLast = last
			sc.sealedEntries += int(count)
			sc.sealedEnd = frameEnd
			pendLeaves = pendLeaves[:0]
			pendFirst = 0
		case recFooter:
			if len(payload) != footerPayLen {
				return sc, fmt.Errorf("%w: %s at %d: footer size %d", ErrCorrupt, name, off, len(payload))
			}
			if len(pendLeaves) != 0 {
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
			if _, err := br.ReadByte(); err != io.EOF {
				return sc, fmt.Errorf("%w: %s: data after footer", ErrCorrupt, name)
			}
			return sc, nil
		default:
			return sc, fmt.Errorf("%w: %s at %d: unknown record type %d", ErrCorrupt, name, off, typ)
		}
		off = frameEnd
	}
	sc.unsealedEntries = len(pendLeaves)
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
