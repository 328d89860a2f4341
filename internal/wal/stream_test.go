package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// streamEntry is one entry of a test batch.
type streamEntry struct {
	kind Kind
	data string
}

var (
	streamBatch1 = []streamEntry{{KindModel, "model-weights"}, {KindSession, "session-3@v1"}, {KindSession, "session-7@v1"}, {KindRefs, "refs{3,7}"}}
	streamBatch2 = []streamEntry{{KindSession, "session-3@v2"}, {KindRefs, "refs{3,7}'"}}
)

// writeStream frames batches onto one stream and returns the wire bytes, the
// offset just past each batch's seal, and each batch's root.
func writeStream(t testing.TB, batches ...[]streamEntry) (wire []byte, ends []int, roots [][HashSize]byte) {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, b := range batches {
		for _, e := range b {
			if _, err := sw.Append(e.kind, []byte(e.data)); err != nil {
				t.Fatal(err)
			}
		}
		root, err := sw.Seal()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
		roots = append(roots, root)
	}
	return buf.Bytes(), ends, roots
}

// readStream reads batches until the stream ends, returning the complete
// batches and the error that ended it (io.EOF for a clean end). A header
// error counts as ending the stream before its first batch.
func readStream(r io.Reader) (batches [][]streamEntry, roots [][HashSize]byte, err error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, nil, err
	}
	for {
		entries, root, err := sr.ReadBatch()
		if err != nil {
			return batches, roots, err
		}
		var b []streamEntry
		for _, e := range entries {
			b = append(b, streamEntry{e.Kind, string(e.Data)})
		}
		batches, roots = append(batches, b), append(roots, root)
	}
}

func sameBatches(a, b [][]streamEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestStreamRoundTrip: two batches on one connection come back entry for
// entry, seq contiguous from 1 across both, each with the root its sender
// sealed, and the stream then ends with a clean io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	wire, _, roots := writeStream(t, streamBatch1, streamBatch2)
	sr, err := NewStreamReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	for i, want := range [][]streamEntry{streamBatch1, streamBatch2} {
		entries, root, err := sr.ReadBatch()
		if err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if root != roots[i] || root == ([HashSize]byte{}) {
			t.Fatalf("batch %d verified root %x, sender sealed %x", i+1, root, roots[i])
		}
		if len(entries) != len(want) {
			t.Fatalf("batch %d has %d entries, want %d", i+1, len(entries), len(want))
		}
		for j, e := range entries {
			if e.Seq != next || e.Kind != want[j].kind || string(e.Data) != want[j].data || !e.Sealed {
				t.Fatalf("batch %d entry %d = %+v, want seq %d %+v", i+1, j, e, next, want[j])
			}
			next++
		}
	}
	if roots[0] == roots[1] {
		t.Fatal("distinct batches sealed with the same merkle root")
	}
	if _, _, err := sr.ReadBatch(); err != io.EOF {
		t.Fatalf("clean stream end returned %v, want io.EOF", err)
	}
}

// TestStreamTornAtEveryOffset: a two-batch stream cut at every byte offset
// yields exactly the batches wholly before the cut and then an ErrCorrupt —
// never a partial batch — except at a batch boundary, where it is a clean
// io.EOF.
func TestStreamTornAtEveryOffset(t *testing.T) {
	wire, ends, _ := writeStream(t, streamBatch1, streamBatch2)
	all := [][]streamEntry{streamBatch1, streamBatch2}
	for cut := 0; cut <= len(wire); cut++ {
		batches, _, err := readStream(bytes.NewReader(wire[:cut]))
		whole := 0
		for _, end := range ends {
			if cut >= end {
				whole++
			}
		}
		if !sameBatches(batches, all[:whole]) {
			t.Fatalf("cut at %d: read %d batches %v, want the %d whole ones", cut, len(batches), batches, whole)
		}
		clean := cut == headerLen || cut == ends[0] || cut == ends[1]
		switch {
		case clean && err != io.EOF:
			t.Fatalf("cut at batch boundary %d: %v, want io.EOF", cut, err)
		case !clean && !errors.Is(err, ErrCorrupt):
			t.Fatalf("cut at %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

// reseal recomputes the CRC of the frame starting at off after a test edited
// its payload, so only the semantic checks can catch the edit.
func reseal(wire []byte, off int) {
	n := int(binary.LittleEndian.Uint32(wire[off+1:]))
	end := off + 5 + n
	binary.LittleEndian.PutUint32(wire[end:], crc32.Checksum(wire[off:end], castagnoli))
}

// TestStreamRefusals: every way a stream can be wrong without being torn. No
// case may hand back a single entry of the offending batch.
func TestStreamRefusals(t *testing.T) {
	good, ends, _ := writeStream(t, streamBatch1, streamBatch2)
	const sealFrame = frameOverhead + sealPayLen
	cases := []struct {
		name   string
		mangle func(w []byte) []byte
		whole  int    // batches delivered before the refusal
		want   error  // errors.Is target
		msg    string // substring of the error
	}{
		{"flipped byte in a seal root", func(w []byte) []byte {
			seal := ends[0] - sealFrame
			w[seal+5+20+3] ^= 0x01
			reseal(w, seal)
			return w
		}, 0, ErrCorrupt, "merkle root mismatch"},
		{"flipped payload bit", func(w []byte) []byte {
			w[headerLen+5+entryHdrLen+2] ^= 0x40
			return w
		}, 0, ErrCorrupt, "crc mismatch"},
		{"flipped bit in the last crc", func(w []byte) []byte {
			w[len(w)-2] ^= 0x40
			return w
		}, 1, ErrCorrupt, "crc mismatch"},
		{"segment header on a socket", func(w []byte) []byte {
			return append(appendHeader(nil, kindSeg), w[headerLen:]...)
		}, 0, ErrCorrupt, "kind 1"},
		{"foreign bytes on a socket", func(w []byte) []byte {
			copy(w, "GET ")
			return w
		}, 0, ErrCorrupt, "bad magic"},
		{"other format version", func(w []byte) []byte {
			binary.LittleEndian.PutUint16(w[4:], walVersion+1)
			return w
		}, 0, ErrVersion, ""},
		{"second batch of a stale connection behind a fresh header", func(w []byte) []byte {
			return append(append([]byte(nil), w[:headerLen]...), w[ends[0]:]...)
		}, 0, ErrCorrupt, "entry seq 5 after 0"},
		{"batch lost mid-stream", func(w []byte) []byte {
			three, e, _ := writeStream(t, streamBatch1, streamBatch2, streamBatch2)
			return append(three[:e[0]:e[0]], three[e[1]:]...)
		}, 1, ErrCorrupt, "entry seq 7 after 4"},
		{"seal counts one entry too many", func(w []byte) []byte {
			seal := ends[0] - sealFrame
			binary.LittleEndian.PutUint32(w[seal+5+16:], uint32(len(streamBatch1)+1))
			reseal(w, seal)
			return w
		}, 0, ErrCorrupt, "does not match pending entries"},
		{"batch opening with a seal", func(w []byte) []byte {
			return append(w[:headerLen:headerLen], w[ends[0]-sealFrame:ends[0]]...)
		}, 0, ErrCorrupt, "does not match pending entries"},
		{"footer frame on a stream", func(w []byte) []byte {
			return appendFrame(w, recFooter, make([]byte, footerPayLen))
		}, 2, ErrCorrupt, "record type 3"},
	}
	for _, tc := range cases {
		wire := tc.mangle(append([]byte(nil), good...))
		batches, _, err := readStream(bytes.NewReader(wire))
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %v, want %v containing %q", tc.name, err, tc.want, tc.msg)
		}
		if !sameBatches(batches, [][]streamEntry{streamBatch1, streamBatch2}[:tc.whole]) {
			t.Errorf("%s: delivered %d batches %v, want %d", tc.name, len(batches), batches, tc.whole)
		}
	}
}

// TestStreamHeaderRefusedInWalDir: the converse refusal — a stream's bytes
// saved as a segment file are corruption to Open, Verify and Dump, not a
// segment variant.
func TestStreamHeaderRefusedInWalDir(t *testing.T) {
	wire, _, _ := writeStream(t, streamBatch1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), wire, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a stream header: %v, want ErrCorrupt", err)
	}
	if _, err := Verify(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify over a stream header: %v, want ErrCorrupt", err)
	}
	if err := Dump(dir, func(Entry) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Dump over a stream header: %v, want ErrCorrupt", err)
	}
}

// TestStreamConsumesExactly pins the self-delimiting property: ReadBatch
// stops at the seal and leaves what follows it — a protocol ack sharing the
// connection — unread.
func TestStreamConsumesExactly(t *testing.T) {
	wire, _, _ := writeStream(t, streamBatch1)
	trailer := []byte("ack-from-the-same-connection")
	r := bytes.NewReader(append(wire, trailer...))
	sr, err := NewStreamReader(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.ReadBatch(); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("ReadBatch consumed past the seal: %d trailing bytes left, want %d", len(rest), len(trailer))
	}
}

// TestStreamLengthPrefixBound: a frame head claiming 200 MiB followed by EOF
// — five hostile bytes on the cluster port — must cost an error, not the
// memory it names: the payload buffer grows only as bytes arrive.
func TestStreamLengthPrefixBound(t *testing.T) {
	wire := appendHeader(nil, kindStream)
	wire = append(wire, recEntry, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(wire[headerLen+1:], 200<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readStream(bytes.NewReader(wire))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("200 MiB prefix then EOF: %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("reader allocated %d bytes for a %d-byte input", grew, len(wire))
	}
}

// TestStreamGrowsWithArrivals: a frame head claiming the full 256 MiB a
// record may hold, followed by a few bytes and EOF, costs about what arrived
// — the payload buffer reserves at most readStep ahead of the bytes in it —
// and a batch the size of a 100-session fleet, read in full, costs about
// twice its size: the buffer doubles as it fills, instead of growing by
// append's 1.25× steps frame after frame.
func TestStreamGrowsWithArrivals(t *testing.T) {
	allocated := func(read func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	wire := appendHeader(nil, kindStream)
	wire = append(wire, recEntry, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(wire[headerLen+1:], maxRecordLen)
	wire = append(wire, "a few bytes"...)
	if grew := allocated(func() {
		if _, _, err := readStream(bytes.NewReader(wire)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("256 MiB prefix then EOF: %v, want ErrCorrupt", err)
		}
	}); grew > 2*readStep {
		t.Fatalf("reader allocated %d bytes for %d that arrived", grew, len(wire))
	}

	var fleet []streamEntry
	for i := 0; i < 110; i++ {
		fleet = append(fleet, streamEntry{KindSession, strings.Repeat("r", 16<<10)})
	}
	wire, _, _ = writeStream(t, fleet)
	sr, err := NewStreamReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if grew := allocated(func() {
		if _, _, err := sr.ReadBatch(); err != nil {
			t.Fatal(err)
		}
	}); grew > 3*uint64(len(wire)) {
		t.Fatalf("reading a %d-byte batch allocated %d bytes", len(wire), grew)
	}
}

// FuzzStreamBatch: no input panics the reader or makes it allocate far past
// what arrived, and any stream it accepts whole is exactly what a
// StreamWriter produces from the entries it returned.
func FuzzStreamBatch(f *testing.F) {
	two, ends, _ := writeStream(f, streamBatch1, streamBatch2)
	f.Add(two)
	f.Add(two[:ends[0]])
	f.Add(two[:ends[0]-3])
	f.Add(two[:headerLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		batches, _, err := readStream(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(b))+4*readStep {
			t.Fatalf("reader allocated %d bytes for a %d-byte input", grew, len(b))
		}
		if err != io.EOF {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("stream error %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		again, _, _ := writeStream(t, batches...)
		if len(batches) == 0 {
			again = appendHeader(nil, kindStream) // a writer sends its header with its first batch
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted a stream a writer would not produce: %d bytes in, %d re-encoded", len(b), len(again))
		}
	})
}
