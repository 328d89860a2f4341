// Package wal is the repo's one durable mutation stream: an append-only,
// segmented, CRC-32C-framed write-ahead log with Merkle-batched integrity
// proofs. Shard ticks journal dirty session records (and the audit stream of
// admissions, refusals, migrations, reaps, failovers, and prediction
// decisions) into it; a checkpoint is a full snapshot that fences and
// truncates it. Replication does not tail it: each link ships its own capture
// as sealed batches on a socket stream (stream.go), whose roots let a
// standby detect divergence before promotion.
//
// # On-disk format (normative; mirrored in ARCHITECTURE.md)
//
// A WAL directory holds numbered segment files, wal-<seq>.seg. Each begins
// with an 8-byte header:
//
//	magic "CAWL" | version uint16 LE | kind uint16 LE (1 = segment)
//
// followed by records framed exactly like checkpoint files:
//
//	type uint8 | length uint32 LE | payload | crc uint32 LE
//
// where crc is CRC-32C (Castagnoli) over type, length, and payload. Record
// types:
//
//	recEntry (1):  kind uint8 | seq uint64 LE | data — one appended entry.
//	               seq is the log-global entry sequence number, contiguous
//	               across segments, starting at 1.
//	recSeal (2):   first uint64 | last uint64 | count uint32 | root [32]byte —
//	               closes a batch: root is the Merkle root (see merkle.go)
//	               over the HashLeaf of every entry payload since the prior
//	               seal. A seal is the durability boundary: it is written
//	               and fsynced together with everything before it.
//	recFooter (3): batches uint32 | first uint64 | last uint64 | segroot
//	               [32]byte — written once when a segment is finalized
//	               (rotation or clean close); segroot is the Merkle root
//	               over the segment's batch roots.
//
// Every batch is issued as a single Write at seal — its entry frames and the
// seal that closes them — and so is every header and footer. A crash (or a
// faultnet byte-budgeted cut) therefore leaves a prefix of the frame
// sequence that tears at most the batch being written, and recovery can
// classify the tear by the byte it lands on.
//
// Segments are append-only by type. The writer holds its active segment as
// an appendonly.File, opened with O_APPEND (and O_EXCL when created), whose
// only methods are Write, Sync and Close: nothing in a Log can read, seek or
// rewrite a segment. The one cut, recovery's truncation of a torn tail,
// runs in Open before the writer exists.
//
// The same entry and seal frames also travel between nodes as a socket
// stream (header kind 2, no footer, read by the same checks; see stream.go).
//
// # Durability and recovery
//
// Append adds the entry's frame to the pending batch in memory; Seal writes
// the batch with its seal record and fsyncs the segment. On Open, the last
// segment's tail is scanned: a torn frame, or valid entries past the last
// seal (which only a cut inside a batch's Write leaves), are truncated
// back to the last sealed batch boundary and reported precisely
// (RecoveryInfo, the cogarm_wal_recovery_truncated_bytes_total counter, and
// an EvWalTruncate event). Damage anywhere except the active tail is not
// recoverable garbage from a crash — it is corruption, and Open refuses it.
//
// The caller's Seal is the only batch boundary: the serve Journal seals
// once per flush (cogarmd -wal-every), so one flush is one batch, and a seal
// never rides the tick path. Segments roll over only between batches: the
// first Seal that leaves the active segment at or past segmentBytes also
// finalizes it and opens the next, so no batch spans or splits across
// segments, and the pending batch is as large as the largest flush.
package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cognitivearm/internal/wal/appendonly"
)

// Sentinel errors, comparable with errors.Is.
var (
	// ErrCorrupt marks a structurally damaged segment outside the
	// recoverable torn tail: bad magic, a CRC mismatch before the last
	// seal, a tear in a non-final segment, or a Merkle root that does not
	// match its entries.
	ErrCorrupt = errors.New("wal: corrupt segment")
	// ErrVersion marks a segment written by an incompatible format version.
	ErrVersion = errors.New("wal: unsupported version")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
)

// Kind tags an entry's payload so readers can dispatch without decoding.
type Kind uint8

// Entry kinds journaled by the serve layer. The WAL itself treats payloads
// as opaque; these constants just keep writer and reader in one place.
const (
	// KindSession: one dirty session's checkpoint.SessionRecord in the fixed
	// binary layout of checkpoint.AppendSessionRecord.
	KindSession Kind = 1
	// KindRefs: gob-encoded serve journal manifest — the authoritative live
	// view (session refs + volatile overlay + NextID) as of the seal that
	// follows it. Replay prunes and overlays by the last one seen.
	KindRefs Kind = 2
	// KindModel: gob-encoded model entry (key + frozen payload), appended
	// once per model per process lifetime so a WAL-only replay can rebuild
	// sessions without a checkpoint.
	KindModel Kind = 3
	// KindAudit: fixed-binary obs.Event (see EncodeEvent) — the audit trail
	// of admissions, refusals, evictions, migrations, reaps, failovers,
	// checkpoints, and WAL truncations.
	KindAudit Kind = 4
	// KindDecision: fixed-binary prediction-decision summary for one
	// session at journal granularity (see EncodeDecision).
	KindDecision Kind = 5
)

const (
	walMagic   = "CAWL"
	walVersion = 2 // 2: KindSession payloads moved from gob to the fixed layout
	kindSeg    = 1 // a segment file in a WAL directory
	kindStream = 2 // the same frames over a connection (stream.go)
	headerLen  = 8

	recEntry  = byte(1)
	recSeal   = byte(2)
	recFooter = byte(3)

	frameOverhead = 1 + 4 + 4 // type + length + crc
	entryHdrLen   = 1 + 8     // kind + seq
	sealPayLen    = 8 + 8 + 4 + HashSize
	footerPayLen  = 4 + 8 + 8 + HashSize

	// maxRecordLen bounds a frame's payload so a corrupt length field
	// cannot drive a giant allocation. Matches the checkpoint framing.
	maxRecordLen = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segmentBytes is the size at which a Seal rolls the active segment over.
// Segments are bounded per batch, not per record: the batch that crosses it
// stays whole in the segment it started in.
const segmentBytes = 8 << 20

// Options configures Open.
type Options struct {
	// Dir is the WAL directory; created if absent.
	Dir string
	// NoSync skips fsync on seal. For tests and benchmarks only: a crash
	// can then lose sealed batches, which production must never do.
	NoSync bool

	// wrap, when set, wraps the active segment's writer — the faultnet
	// test seam for byte-budgeted torn writes. Each batch still goes down
	// as a single Write call.
	wrap func(io.Writer) io.Writer
	// segBytes, when positive, replaces segmentBytes — the test seam for
	// rollover without megabytes of entries.
	segBytes int64
}

// RecoveryInfo reports what Open found — and, for a torn tail, exactly what
// it dropped.
type RecoveryInfo struct {
	// Segments scanned (including the reopened tail).
	Segments int
	// SealedEntries recovered across all segments.
	SealedEntries uint64
	// LastSeq is the highest sealed entry sequence number (0 if empty).
	LastSeq uint64
	// TruncatedBytes were cut from the tail segment: the torn frame plus
	// any valid-but-unsealed entries after the last seal.
	TruncatedBytes int64
	// DroppedEntries counts complete, CRC-valid entries that were discarded
	// because no seal covered them. A torn partial frame adds bytes but not
	// an entry.
	DroppedEntries int
	// TornSegment names the truncated file ("" when the tail was clean).
	TornSegment string
}

type segMeta struct {
	name        string
	seq         uint64
	first, last uint64 // entry seq range (0,0 when the segment has none)
	bytes       int64
}

// Log is an open write-ahead log. All methods are safe for concurrent use;
// the segment lock serializes every byte that reaches the active file, an
// appendonly.File that the Log can append to, fsync and close, and nothing
// else.
type Log struct {
	opts Options

	mu                sync.Mutex
	f                 *appendonly.File
	w                 io.Writer // f, possibly wrapped by opts.wrap
	segSeq            uint64    // active segment number
	segPath           string
	segSize           int64
	segFirst, segLast uint64           // entry seqs in the active segment
	roots             [][HashSize]byte // sealed batch roots of the active segment

	pend      batch          // pending (unsealed) entries
	nextSeq   uint64         // next entry sequence number
	sealedSeq uint64         // last sealed entry sequence number
	lastRoot  [HashSize]byte // root of the last sealed batch, in any segment
	sealed    []segMeta      // finalized (footered) segments, oldest first
	// frame holds the pending batch's entry frames, written with their seal
	// in one Write. Its capacity is reused: it grows to the largest batch a
	// caller seals.
	frame     []byte
	recovered RecoveryInfo
	closed    bool
	err       error // sticky write-path error; the log refuses further use
}

// Open opens (creating if needed) the WAL in opts.Dir, recovering a torn
// tail to the last sealed batch boundary. The returned RecoveryInfo says
// what was found and what, if anything, was dropped.
func Open(opts Options) (*Log, RecoveryInfo, error) {
	if opts.segBytes <= 0 {
		opts.segBytes = segmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: open: %w", err)
	}
	names, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}

	l := &Log{opts: opts, nextSeq: 1}
	var info RecoveryInfo
	for i, name := range names {
		path := filepath.Join(opts.Dir, name)
		sc, scanErr := scanSegment(path)
		if scanErr != nil && !errors.Is(scanErr, errTorn) {
			return nil, info, scanErr // structural corruption, not a torn tail
		}
		last := i == len(names)-1
		info.Segments++
		info.SealedEntries += uint64(sc.sealedEntries)
		if sc.sealedLast > info.LastSeq {
			info.LastSeq = sc.sealedLast
		}
		if n := len(sc.roots); n > 0 {
			l.lastRoot = sc.roots[n-1]
		}
		if !last {
			if scanErr != nil || !sc.footer {
				return nil, info, fmt.Errorf("%w: %s is damaged but is not the tail segment", ErrCorrupt, name)
			}
			l.sealed = append(l.sealed, segMeta{
				name: name, seq: segSeqOf(name),
				first: sc.firstSealed, last: sc.sealedLast, bytes: sc.size,
			})
			continue
		}
		// Tail segment: cut everything past the last sealed boundary — but
		// only when the damage can actually be a crash tear. A segment whose
		// file still ends in a valid footer was finalized; a parse failure
		// inside it is mid-file corruption, and truncating would silently
		// discard sealed batches.
		if scanErr != nil && sc.footerAtEnd {
			return nil, info, fmt.Errorf("%w: %s has a finalized footer but does not parse cleanly (%v)", ErrCorrupt, name, scanErr)
		}
		// A tail torn inside the 8-byte header holds nothing recoverable, so
		// the file is removed outright and its number reused.
		if !sc.headerOK {
			if err := os.Remove(path); err != nil {
				return nil, info, fmt.Errorf("wal: recover %s: %w", name, err)
			}
			info.TruncatedBytes = sc.size
			info.TornSegment = name
			recordTruncate(sc.size, 0)
			continue
		}
		if cut := sc.size - sc.sealedEnd; cut > 0 {
			if err := os.Truncate(path, sc.sealedEnd); err != nil {
				return nil, info, fmt.Errorf("wal: recover %s: %w", name, err)
			}
			info.TruncatedBytes = cut
			info.DroppedEntries = sc.unsealedEntries
			info.TornSegment = name
			recordTruncate(cut, sc.unsealedEntries)
		}
		if sc.footer {
			// Finalized by a clean close: keep it read-only and start fresh.
			l.sealed = append(l.sealed, segMeta{
				name: name, seq: segSeqOf(name),
				first: sc.firstSealed, last: sc.sealedLast, bytes: sc.sealedEnd,
			})
			continue
		}
		// Reopen the truncated tail for appending.
		f, err := appendonly.Open(path)
		if err != nil {
			return nil, info, fmt.Errorf("wal: reopen tail: %w", err)
		}
		l.f = f
		l.segSeq = segSeqOf(name)
		l.segPath = path
		l.segSize = sc.sealedEnd
		l.segFirst, l.segLast = sc.firstSealed, sc.sealedLast
		l.roots = sc.roots
	}
	if info.LastSeq > 0 {
		l.nextSeq = info.LastSeq + 1
	}
	l.sealedSeq = info.LastSeq
	l.recovered = info
	if l.f == nil {
		next := uint64(1)
		if n := len(l.sealed); n > 0 {
			next = l.sealed[n-1].seq + 1
		}
		if err := l.openSegment(next); err != nil {
			return nil, info, err
		}
	} else if opts.wrap != nil {
		l.w = opts.wrap(l.f)
	} else {
		l.w = l.f
	}
	l.updateGauges()
	return l, info, nil
}

// segmentFiles lists wal-*.seg names in dir, sorted by segment number.
func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return segSeqOf(names[i]) < segSeqOf(names[j]) })
	return names, nil
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

func segSeqOf(name string) uint64 {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, _ := strconv.ParseUint(s, 10, 64)
	return n
}

// openSegment creates and becomes the writer of segment seq. Caller holds
// l.mu or is Open (single-threaded).
func (l *Log) openSegment(seq uint64) error {
	path := filepath.Join(l.opts.Dir, segName(seq))
	f, err := appendonly.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	w := io.Writer(f)
	if l.opts.wrap != nil {
		w = l.opts.wrap(f)
	}
	if _, err := w.Write(appendHeader(nil, kindSeg)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.f = f
	l.w = w
	l.segSeq = seq
	l.segPath = path
	l.segSize = headerLen
	l.segFirst, l.segLast = 0, 0
	l.roots = l.roots[:0]
	return nil
}

// Append journals one entry and returns its sequence number. The entry's
// frame joins the pending batch in memory and does no I/O; it reaches the
// segment with the caller's next Seal, in the same single Write, and is
// durable from then on.
func (l *Log) Append(kind Kind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, err
	}
	seq := l.nextSeq
	frameLen := int64(frameOverhead + entryHdrLen + len(data))
	l.frame = l.pend.appendEntry(l.frame, kind, seq, data)
	l.segSize += frameLen
	if l.segFirst == 0 {
		l.segFirst = seq
	}
	l.segLast = seq
	l.nextSeq = seq + 1

	t := walTel()
	t.entries.Inc()
	t.bytes.Add(uint64(frameLen))
	t.activeBytes.Set(float64(l.activeBytesLocked()))
	return seq, nil
}

// writeAll pushes b down as a single Write and makes any error sticky: a
// torn in-flight segment is unrecoverable without a reopen.
func (l *Log) writeAll(b []byte) error {
	n, err := l.w.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		l.err = fmt.Errorf("wal: write: %w", err)
		return l.err
	}
	return nil
}

func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

// Seal closes the pending batch: writes its entry frames and its seal record
// (Merkle root over the batch's entry payloads) in one Write and fsyncs the
// segment, making everything up to and including the batch durable. With
// nothing pending it is a no-op returning the zero root. A seal that leaves
// the active segment at or past its size bound then rolls it over, so the
// next batch starts a fresh segment.
func (l *Log) Seal() (root [HashSize]byte, first, last uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return root, 0, 0, err
	}
	//cogarm:allow nolockblock -- the WAL segment lock serializes the seal write + fsync, and a rollover's footer and next segment, by design
	return l.sealRollLocked()
}

// sealRollLocked seals the pending batch, then rolls the active segment over
// if that left it at or past its bound: a segment ends only at a seal.
func (l *Log) sealRollLocked() (root [HashSize]byte, first, last uint64, err error) {
	if root, first, last, err = l.sealLocked(); err != nil || l.segSize < l.opts.segBytes {
		return root, first, last, err
	}
	return root, first, last, l.rotateLocked()
}

func (l *Log) sealLocked() (root [HashSize]byte, first, last uint64, err error) {
	if len(l.pend.leaves) == 0 {
		return root, 0, 0, nil
	}
	start := time.Now()
	// The batch empties before it is written: a failed write or fsync is
	// sticky (l.err), so nothing can append to the half-sealed batch.
	l.frame, root, first, last = l.pend.appendSeal(l.frame)
	err = l.writeAll(l.frame)
	l.frame = l.frame[:0]
	if err != nil {
		return root, 0, 0, err
	}
	l.segSize += frameOverhead + sealPayLen // the entries were counted as they were appended
	if err := l.syncLocked(); err != nil {
		return root, 0, 0, err
	}
	l.roots = append(l.roots, root)
	l.lastRoot = root
	l.sealedSeq = last

	t := walTel()
	t.seals.Inc()
	t.sealDur.ObserveDuration(time.Since(start).Nanoseconds())
	t.activeBytes.Set(float64(l.activeBytesLocked()))
	return root, first, last, nil
}

// syncLocked fsyncs the active segment (timed), unless NoSync.
func (l *Log) syncLocked() error {
	if l.opts.NoSync {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	walTel().fsyncDur.ObserveDuration(time.Since(start).Nanoseconds())
	return nil
}

// Rotate seals any pending batch, finalizes the active segment with its
// footer (Merkle root over batch roots), and opens the next segment. A
// finalized segment is immutable and eligible for TruncateBelow.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	//cogarm:allow nolockblock -- the WAL segment lock serializes rotation I/O (footer write, fsync, close, create) by design
	return l.rotateLocked()
}

// footerLocked finalizes the active segment: its footer frame (Merkle root
// over the batch roots), written and fsynced.
func (l *Log) footerLocked() error {
	segRoot := Root(l.roots)
	var pay [footerPayLen]byte
	binary.LittleEndian.PutUint32(pay[0:4], uint32(len(l.roots)))
	binary.LittleEndian.PutUint64(pay[4:12], l.segFirst)
	binary.LittleEndian.PutUint64(pay[12:20], l.segLast)
	copy(pay[20:], segRoot[:])
	frame := appendFrame(nil, recFooter, pay[:])
	if err := l.writeAll(frame); err != nil {
		return err
	}
	l.segSize += int64(len(frame))
	return l.syncLocked()
}

func (l *Log) rotateLocked() error {
	if _, _, _, err := l.sealLocked(); err != nil {
		return err
	}
	if l.segLast == 0 && len(l.roots) == 0 {
		return nil // empty segment: nothing to finalize
	}
	if err := l.footerLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: close segment: %w", err)
		return l.err
	}
	l.sealed = append(l.sealed, segMeta{
		name: segName(l.segSeq), seq: l.segSeq,
		first: l.segFirst, last: l.segLast, bytes: l.segSize,
	})
	if err := l.openSegment(l.segSeq + 1); err != nil {
		l.err = err
		return err
	}
	l.updateGauges()
	return nil
}

// TruncateBelow removes finalized segments whose every entry sequence is
// ≤ seq — the compaction hook: once a checkpoint covers WAL position seq,
// the segments behind it are dead weight. The active segment is never
// removed. Returns how many segments were deleted.
func (l *Log) TruncateBelow(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, err
	}
	removed := 0
	for len(l.sealed) > 0 {
		m := l.sealed[0]
		if m.last == 0 || m.last > seq {
			break
		}
		//cogarm:allow nolockblock -- the WAL segment lock serializes segment removal by design (compaction is rare and bounded)
		if err := os.Remove(filepath.Join(l.opts.Dir, m.name)); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	l.updateGauges()
	return removed, nil
}

// LastSealed returns the sequence number of the last durably sealed entry.
func (l *Log) LastSealed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealedSeq
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Close seals any pending batch, finalizes the active segment with its
// footer, and closes the file. A cleanly closed WAL reopens with no
// truncation.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	//cogarm:allow nolockblock -- the WAL segment lock serializes shutdown I/O by design
	err := l.closeLocked()
	l.closed = true
	return err
}

func (l *Log) closeLocked() error {
	if l.err != nil {
		l.f.Close()
		return l.err
	}
	if _, _, _, err := l.sealLocked(); err != nil {
		l.f.Close()
		return err
	}
	if l.segLast != 0 || len(l.roots) > 0 {
		if err := l.footerLocked(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

// Status is a point-in-time snapshot for /statusz.
type Status struct {
	Dir            string `json:"dir"`
	Segments       int    `json:"segments"`
	ActiveBytes    int64  `json:"active_bytes"`
	NextSeq        uint64 `json:"next_seq"`
	SealedSeq      uint64 `json:"sealed_seq"`
	PendingEntries int    `json:"pending_entries"`
	Batches        int    `json:"batches_in_segment"`
	LastRoot       string `json:"last_root,omitempty"`
	TruncatedBytes int64  `json:"recovery_truncated_bytes,omitempty"`
	DroppedEntries int    `json:"recovery_dropped_entries,omitempty"`
}

// Status reports the log's current shape.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Dir:            l.opts.Dir,
		Segments:       len(l.sealed) + 1,
		ActiveBytes:    l.activeBytesLocked(),
		NextSeq:        l.nextSeq,
		SealedSeq:      l.sealedSeq,
		PendingEntries: len(l.pend.leaves),
		Batches:        len(l.roots),
		TruncatedBytes: l.recovered.TruncatedBytes,
		DroppedEntries: l.recovered.DroppedEntries,
	}
	if l.sealedSeq > 0 {
		st.LastRoot = hexRoot(l.lastRoot)
	}
	return st
}

func (l *Log) activeBytesLocked() int64 {
	total := l.segSize
	for _, m := range l.sealed {
		total += m.bytes
	}
	return total
}

func (l *Log) updateGauges() {
	t := walTel()
	t.segments.Set(float64(len(l.sealed) + 1))
	t.activeBytes.Set(float64(l.activeBytesLocked()))
}

func hexRoot(r [HashSize]byte) string { return hex.EncodeToString(r[:]) }
