package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// collect dumps dir into a slice, failing the test on error.
func collect(t *testing.T, dir string) []Entry {
	t.Helper()
	var out []Entry
	if err := Dump(dir, func(e Entry) error { out = append(out, e); return nil }); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return out
}

func TestAppendSealReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Segments != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh open reported recovery %+v", info)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("entry-%d", i))
		want = append(want, data)
		seq, err := l.Append(KindSession, data)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	root, first, last, err := l.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if first != 1 || last != 10 || root == ([HashSize]byte{}) {
		t.Fatalf("Seal = (%x, %d, %d)", root, first, last)
	}
	if got := l.LastSealed(); got != 10 {
		t.Fatalf("LastSealed = %d", got)
	}
	// Sealing with nothing pending is a no-op.
	if r2, _, _, err := l.Seal(); err != nil || r2 != ([HashSize]byte{}) {
		t.Fatalf("empty Seal = (%x, %v)", r2, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Clean reopen: no truncation, sequence numbers continue.
	l2, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if info.TruncatedBytes != 0 || info.TornSegment != "" {
		t.Fatalf("clean reopen truncated: %+v", info)
	}
	if info.SealedEntries != 10 || info.LastSeq != 10 {
		t.Fatalf("recovery info %+v", info)
	}
	if seq, err := l2.Append(KindAudit, []byte("next")); err != nil || seq != 11 {
		t.Fatalf("post-reopen Append = (%d, %v)", seq, err)
	}
	if _, _, _, err := l2.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}

	got := collect(t, dir)
	if len(got) != 11 {
		t.Fatalf("dumped %d entries, want 11", len(got))
	}
	for i, e := range got[:10] {
		if e.Seq != uint64(i+1) || e.Kind != KindSession || !bytes.Equal(e.Data, want[i]) || !e.Sealed {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if got[10].Kind != KindAudit || string(got[10].Data) != "next" {
		t.Fatalf("entry 11 = %+v", got[10])
	}
}

// TestAppendDoesNotAllocate: an entry is laid straight into the log's frame
// buffer, so between seals an append costs one copy and no allocation.
func TestAppendDoesNotAllocate(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := bytes.Repeat([]byte{0xa5}, 4<<10)
	for i := 0; i < 300; i++ { // warm the frame buffer and the leaf slice
		if _, err := l.Append(KindSession, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// 200 × 4 KiB stays within the frame buffer the warm-up grew.
	if allocs := testing.AllocsPerRun(199, func() {
		if _, err := l.Append(KindSession, data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %.0f times per entry, want 0", allocs)
	}
}

// writeSizes records the size of every Write that reaches a segment.
type writeSizes struct {
	w     io.Writer
	sizes *[]int
}

func (ws writeSizes) Write(b []byte) (int, error) {
	*ws.sizes = append(*ws.sizes, len(b))
	return ws.w.Write(b)
}

// TestBatchIsOneWrite: appended frames stay in memory until the caller
// seals, then go down with the seal in a single Write — a batch of any size,
// past a mebibyte too — and the segment reads back every entry.
func TestBatchIsOneWrite(t *testing.T) {
	dir := t.TempDir()
	var sizes []int
	l, _, err := Open(Options{Dir: dir, NoSync: true,
		wrap: func(w io.Writer) io.Writer { return writeSizes{w, &sizes} }})
	if err != nil {
		t.Fatal(err)
	}
	entryFrame := func(n int) int { return frameOverhead + entryHdrLen + n }
	const sealFrame = frameOverhead + sealPayLen
	for _, data := range []string{"a", "bb"} {
		if _, err := l.Append(KindSession, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if len(sizes) != 1 { // the segment header alone
		t.Fatalf("appends issued writes %v before their seal", sizes[1:])
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// 2000 × 1 KiB: a batch past a mebibyte is still one Write.
	big := bytes.Repeat([]byte{0x5a}, 1<<10)
	for i := 0; i < 2000; i++ {
		if _, err := l.Append(KindAudit, big); err != nil {
			t.Fatal(err)
		}
	}
	if len(sizes) != 2 {
		t.Fatalf("a large pending batch issued writes %v before its seal", sizes[2:])
	}
	if _, first, last, err := l.Seal(); err != nil || first != 3 || last != 2002 {
		t.Fatalf("Seal = (%d, %d, %v), want the 2000 entries 3..2002 as one batch", first, last, err)
	}
	want := []int{headerLen, entryFrame(1) + entryFrame(2) + sealFrame, 2000*entryFrame(len(big)) + sealFrame}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("writes %v, want %v: one per batch", sizes, want)
	}
	if st := l.Status(); st.Batches != 2 {
		t.Fatalf("Status = %+v, want 2 batches", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != 2002 || string(got[1].Data) != "bb" || !bytes.Equal(got[2001].Data, big) {
		t.Fatalf("segment holds %d entries", len(got))
	}
}

func TestRotationAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so seals roll them over organically.
	l, _, err := Open(Options{Dir: dir, segBytes: 256, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := bytes.Repeat([]byte("x"), 48)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(KindSession, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%4 == 3 {
			if _, _, _, err := l.Seal(); err != nil {
				t.Fatalf("Seal: %v", err)
			}
		}
	}
	st := l.Status()
	if st.Segments < 3 {
		t.Fatalf("expected organic rotation, got %d segments", st.Segments)
	}

	// Entries survive rotation in order, and every 4-entry batch sits whole
	// in one segment.
	got := collect(t, dir)
	if len(got) != 20 || got[0].Seq != 1 || got[19].Seq != 20 {
		t.Fatalf("dump across segments: %d entries", len(got))
	}
	for i, e := range got {
		if b := got[i/4*4]; e.Segment != b.Segment {
			t.Fatalf("entry %d is in %s, its batch began in %s", e.Seq, e.Segment, b.Segment)
		}
	}

	// Truncating below a mid-log seq removes only fully covered segments.
	removed, err := l.TruncateBelow(10)
	if err != nil {
		t.Fatalf("TruncateBelow: %v", err)
	}
	if removed == 0 {
		t.Fatalf("expected at least one segment removed")
	}
	after := collect(t, dir)
	if len(after) == 0 || after[len(after)-1].Seq != 20 {
		t.Fatalf("tail entries lost by truncation")
	}
	for _, e := range after {
		if e.Seq > 10 {
			break
		}
	}
	// Everything still present must verify.
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after truncation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen continues after both rotation and truncation.
	l2, info, err := Open(Options{Dir: dir, segBytes: 256, NoSync: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if info.TruncatedBytes != 0 {
		t.Fatalf("unexpected truncation on clean reopen: %+v", info)
	}
	if seq, err := l2.Append(KindSession, payload); err != nil || seq != 21 {
		t.Fatalf("Append after reopen = (%d, %v)", seq, err)
	}
}

func TestTruncateBelowNeverRemovesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(KindSession, []byte("a")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if removed, err := l.TruncateBelow(99); err != nil || removed != 0 {
		t.Fatalf("TruncateBelow touched the active segment: (%d, %v)", removed, err)
	}
	if got := collect(t, dir); len(got) != 1 {
		t.Fatalf("active segment lost")
	}
}

func TestClosedLogRefusesUse(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := l.Append(KindSession, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if _, _, _, err := l.Seal(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Seal after Close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// frameOffsets walks a segment file and returns the byte offset of every
// frame start, plus each frame's type, using only the on-disk format.
func frameOffsets(t *testing.T, path string) (offs []int64, types []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	off := int64(headerLen)
	for off < int64(len(raw)) {
		offs = append(offs, off)
		types = append(types, raw[off])
		plen := binary.LittleEndian.Uint32(raw[off+1 : off+5])
		off += frameOverhead + int64(plen)
	}
	return offs, types
}

func TestVerifyDetectsFlippedPayloadByte(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(KindSession, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("clean Verify: %v", err)
	}

	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	offs, types := frameOffsets(t, seg)
	var entryOff int64 = -1
	for i, typ := range types {
		if typ == recEntry {
			entryOff = offs[i]
		}
	}
	if entryOff < 0 {
		t.Fatalf("no entry frame found")
	}
	plen := binary.LittleEndian.Uint32(raw[entryOff+1 : entryOff+5])

	// Flip one byte of the entry's user data without fixing the CRC: the
	// framing layer alone must reject the segment.
	tampered := append([]byte(nil), raw...)
	tampered[entryOff+5+int64(entryHdrLen)] ^= 0x01
	if err := os.WriteFile(seg, tampered, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatalf("Verify accepted a CRC-invalid segment")
	}

	// Now also recompute the frame CRC — simulating tampering below the
	// framing layer. Only the Merkle seal can catch this, and must.
	crc := crc32.Checksum(tampered[entryOff:entryOff+5+int64(plen)], castagnoli)
	binary.LittleEndian.PutUint32(tampered[entryOff+5+int64(plen):], crc)
	if err := os.WriteFile(seg, tampered, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	reports, err := Verify(dir)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "merkle root mismatch") {
		t.Fatalf("flip with fixed CRC not caught by merkle layer: %v", err)
	}
	if len(reports) != 1 || reports[0].Err == "" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestVerifyReportsSegmentRoots(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(KindAudit, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if _, _, _, err := l.Seal(); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reports, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %+v", reports)
	}
	r := reports[0]
	if r.Batches != 4 || r.Entries != 4 || !r.Footer || r.Root == "" ||
		r.FirstSeq != 1 || r.LastSeq != 4 {
		t.Fatalf("report = %+v", r)
	}
}

func TestOpenRefusesDamagedNonTailSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(KindSession, bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if _, err := l.Append(KindSession, []byte("b")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the FIRST (non-tail) segment: that is corruption, not recovery.
	seg1 := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(seg1, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, _, err := Open(Options{Dir: dir, NoSync: true}); err == nil {
		t.Fatalf("Open accepted a torn non-tail segment")
	}
}

func TestStatusShape(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append(KindSession, []byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, _, _, err := l.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	st := l.Status()
	if st.Dir != dir || st.Segments != 1 || st.SealedSeq != 1 || st.NextSeq != 2 ||
		st.ActiveBytes <= headerLen || st.LastRoot == "" {
		t.Fatalf("Status = %+v", st)
	}
}

// FuzzLogOps drives a log on tiny segments with a random sequence of
// appends, seals, rotations and close+reopens (one byte per op: the low
// three bits pick it, the rest size an append) and checks it against a
// model: every append gets the next seq, across reopens too; each non-empty
// Seal, Rotate or Close seals exactly the entries appended since the last
// one, as one batch that sits whole in one segment; a Seal leaves the
// active segment under its bound; no op changes a byte already in a
// segment file or removes one (each file's previous bytes stay a prefix of
// its current bytes); and Dump and Verify read back exactly those entries
// and batches. Seeds: testdata/fuzz/FuzzLogOps.
func FuzzLogOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		dir := t.TempDir()
		opts := Options{Dir: dir, NoSync: true, segBytes: 192}
		l, _, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{} // every segment file's bytes after the last op
		appendOnly(t, dir, files)
		var (
			want    [][]byte    // every appended entry's data, by seq-1
			batches [][2]uint64 // each sealed batch's first and last seq
			pending int         // entries appended since the last seal
		)
		// pendingRange is what the next seal covers: [0,0] when nothing is
		// pending.
		pendingRange := func() (first, last uint64) {
			if pending == 0 {
				return 0, 0
			}
			return uint64(len(want) - pending + 1), uint64(len(want))
		}
		sealed := func() {
			if first, last := pendingRange(); pending > 0 {
				batches = append(batches, [2]uint64{first, last})
				pending = 0
			}
		}
		for _, op := range ops {
			switch op & 7 {
			case 0, 1, 2, 3:
				data := payloadOf(len(want), int(op>>3)*5)
				seq, err := l.Append(Kind(1+len(want)%5), data)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, data)
				pending++
				if seq != uint64(len(want)) {
					t.Fatalf("append got seq %d, want %d", seq, len(want))
				}
			case 4, 5:
				root, first, last, err := l.Seal()
				if err != nil {
					t.Fatal(err)
				}
				if wf, wl := pendingRange(); first != wf || last != wl {
					t.Fatalf("Seal sealed [%d,%d], want [%d,%d]", first, last, wf, wl)
				}
				if pending > 0 && hexRoot(root) != l.Status().LastRoot {
					t.Fatalf("Seal returned root %x, Status reports %s", root, l.Status().LastRoot)
				}
				if l.segSize >= opts.segBytes {
					t.Fatalf("Seal left the active segment at %d bytes, past its %d-byte bound", l.segSize, opts.segBytes)
				}
				sealed()
			case 6:
				if err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
				sealed()
			case 7:
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				sealed()
				var info RecoveryInfo
				if l, info, err = Open(opts); err != nil {
					t.Fatal(err)
				}
				if info.TruncatedBytes != 0 || info.LastSeq != uint64(len(want)) {
					t.Fatalf("reopen after a clean close: %+v, want last seq %d", info, len(want))
				}
			}
			appendOnly(t, dir, files)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		sealed()
		appendOnly(t, dir, files)

		got := collect(t, dir)
		if len(got) != len(want) {
			t.Fatalf("Dump read %d entries, want %d", len(got), len(want))
		}
		b := 0
		for i, e := range got {
			if e.Seq != uint64(i+1) || e.Kind != Kind(1+i%5) || !bytes.Equal(e.Data, want[i]) || !e.Sealed {
				t.Fatalf("entry %d = seq %d kind %d, %d bytes, sealed %v", i+1, e.Seq, e.Kind, len(e.Data), e.Sealed)
			}
			for e.Seq > batches[b][1] {
				b++
			}
			if first := got[int(batches[b][0])-1]; first.Segment != e.Segment {
				t.Fatalf("batch [%d,%d] spans %s and %s", batches[b][0], batches[b][1], first.Segment, e.Segment)
			}
		}
		reports, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range reports {
			n += r.Batches
		}
		if n != len(batches) {
			t.Fatalf("Verify counts %d batches, want %d", n, len(batches))
		}
	})
}

// appendOnly fails t unless every segment file seen in dir is still there
// and still begins with the bytes files recorded for it, then records each
// file's current bytes.
func appendOnly(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	names, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept, had := 0, len(files)
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		prev, ok := files[name]
		if !bytes.HasPrefix(b, prev) {
			t.Fatalf("%s was rewritten: its first %d bytes changed (now %d bytes long)", name, len(prev), len(b))
		}
		if ok {
			kept++
		}
		files[name] = b
	}
	if kept != had {
		t.Fatalf("%d of %d segment files disappeared", had-kept, had)
	}
}
