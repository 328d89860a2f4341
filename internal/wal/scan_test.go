package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// readerScan is the segment scan as it was before segments were read whole:
// frameReader over an io.Reader — the reader socket streams still use — each
// frame in its own buffer, each leaf hashed as its entry arrives. It is the
// reference the in-memory scanSegmentBytes must agree with on every input.
func readerScan(name string, data []byte) (*segScan, error) {
	sc := &segScan{size: int64(len(data))}
	fr := frameReader{r: bytes.NewReader(data)}
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
		typ, payload, err := fr.next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
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
			sc.entries = append(sc.entries, Entry{Seq: seq, Kind: Kind(payload[0]), Data: payload[entryHdrLen:], Segment: name})
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
				return sc, fmt.Errorf("%w: footer size %d", ErrCorrupt, len(payload))
			}
			if len(bs.leaves) != 0 {
				return sc, fmt.Errorf("%w: footer over unsealed entries", ErrCorrupt)
			}
			batches := binary.LittleEndian.Uint32(payload[0:4])
			first := binary.LittleEndian.Uint64(payload[4:12])
			last := binary.LittleEndian.Uint64(payload[12:20])
			var got [HashSize]byte
			copy(got[:], payload[20:])
			if int(batches) != len(sc.roots) || first != sc.firstSealed || last != sc.sealedLast {
				return sc, fmt.Errorf("%w: footer does not match seals", ErrCorrupt)
			}
			if got != Root(sc.roots) {
				return sc, fmt.Errorf("%w: segment merkle root mismatch", ErrCorrupt)
			}
			sc.footer = true
			sc.sealedEnd = frameEnd
			if _, _, err := fr.next(nil); err != io.EOF {
				return sc, fmt.Errorf("%w: %s: data after footer", ErrCorrupt, name)
			}
			return sc, nil
		default:
			return sc, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
		}
		off = frameEnd
	}
	sc.unsealedEntries = len(bs.leaves)
	return sc, nil
}

// errClass names the class recovery acts on: a tear it may cut, another
// version, or corruption it must refuse.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errTorn):
		return "torn"
	case errors.Is(err, ErrVersion):
		return "version"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// sameScan compares what recovery, Dump and Verify read off a scan.
func sameScan(t *testing.T, got, want *segScan) {
	t.Helper()
	if got.size != want.size || got.sealedEnd != want.sealedEnd || got.headerOK != want.headerOK ||
		got.footer != want.footer || got.firstSealed != want.firstSealed || got.sealedLast != want.sealedLast ||
		got.sealedEntries != want.sealedEntries || got.unsealedEntries != want.unsealedEntries {
		t.Fatalf("scan frontier %+v, reader scan %+v", *got, *want)
	}
	if !reflect.DeepEqual(got.roots, want.roots) {
		t.Fatalf("scan roots %x, reader scan %x", got.roots, want.roots)
	}
	if len(got.entries) != len(want.entries) {
		t.Fatalf("scan kept %d entries, reader scan %d", len(got.entries), len(want.entries))
	}
	for i := range got.entries {
		g, w := got.entries[i], want.entries[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Segment != w.Segment || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("entry %d: scan %d/%d (%d bytes), reader scan %d/%d (%d bytes)",
				i, g.Seq, g.Kind, len(g.Data), w.Seq, w.Kind, len(w.Data))
		}
	}
}

// FuzzScanSegment: the in-memory segment scanner and the frameReader-driven
// reference agree on every input — the same entries, the same sealed
// frontier, the same error class — and neither panics. The seed corpus
// (testdata/fuzz/FuzzScanSegment) holds a valid segment and the damage
// shapes recovery distinguishes.
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const name = "wal-0000000000000001.seg"
		want, wantErr := readerScan(name, data)
		got, gotErr := scanSegmentBytes(name, data, true)
		if g, w := errClass(gotErr), errClass(wantErr); g != w {
			t.Fatalf("in-memory scan error %q (%v), reader scan %q (%v)", g, gotErr, w, wantErr)
		}
		sameScan(t, got, want)
	})
}

// TestScanSegmentCorpusClasses pins what each committed seed is, so the
// corpus keeps covering every class even if a seed is regenerated.
func TestScanSegmentCorpusClasses(t *testing.T) {
	want := map[string]string{
		"valid": "ok", "torn-mid-head": "torn", "torn-mid-payload": "torn", "torn-mid-crc": "torn",
		"bad-crc": "torn", "implausible-length": "torn",
		"seal-count-mismatch": "corrupt", "data-after-footer": "corrupt",
	}
	for name, class := range want {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzScanSegment", name))
		if err != nil {
			t.Fatal(err)
		}
		data := corpusBytes(t, raw)
		if _, err := scanSegmentBytes(name, data, true); errClass(err) != class {
			t.Errorf("%s: scan error %v, want class %s", name, err, class)
		}
	}
}

// corpusBytes decodes a one-argument "go test fuzz v1" []byte file.
func corpusBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := bytes.SplitN(raw, []byte("\n"), 3)
	if len(lines) < 2 || string(lines[0]) != "go test fuzz v1" {
		t.Fatalf("not a fuzz corpus file")
	}
	lit := bytes.TrimSuffix(bytes.TrimPrefix(lines[1], []byte("[]byte(")), []byte(")"))
	s, err := strconv.Unquote(string(lit))
	if err != nil {
		t.Fatalf("corpus literal: %v", err)
	}
	return []byte(s)
}

func payloadOf(seed, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

// TestParallelLeavesMatchSerial: the fan-out hasher returns the leaves, and
// so the root, of a serial HashLeaf loop, for batches on both sides of its
// threshold, payloads from 1 B to 1 MiB, and 1, 2 and 4 workers.
func TestParallelLeavesMatchSerial(t *testing.T) {
	sizes := func(ns ...int) [][]byte {
		ps := make([][]byte, len(ns))
		for i, n := range ns {
			ps[i] = payloadOf(i+n, n)
		}
		return ps
	}
	repeat := func(n, size int) []int {
		ns := make([]int, n)
		for i := range ns {
			ns[i] = size
		}
		return ns
	}
	mixed := make([]int, 0, 200)
	for i := 0; i < 200; i++ {
		mixed = append(mixed, 1+(i*7919)%(8<<10))
	}
	batches := map[string][][]byte{
		"one-byte":           sizes(1),
		"small":              sizes(1, 2, 3, 100, 4096),
		"just-below":         sizes(parallelLeafBytes/2, parallelLeafBytes/2-1),
		"at-threshold":       sizes(parallelLeafBytes/2, parallelLeafBytes/2),
		"many-small-above":   sizes(repeat(300, 1<<10)...),
		"one-mib":            sizes(1 << 20),
		"one-mib-then-bytes": sizes(1<<20, 1, 1, 1),
		"bytes-then-one-mib": sizes(1, 1, 1<<20),
		"mixed-above":        sizes(mixed...),
		"session-flush":      sizes(repeat(64, 16<<10)...),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, ps := range batches {
			want := make([][HashSize]byte, len(ps))
			for i, p := range ps {
				want[i] = HashLeaf(p)
			}
			prefix := [][HashSize]byte{HashLeaf([]byte("already here"))}
			got := hashLeaves(append([][HashSize]byte(nil), prefix...), ps)
			if got[0] != prefix[0] || !reflect.DeepEqual(got[1:], want) {
				t.Fatalf("GOMAXPROCS %d, %s: leaves differ from the serial loop", procs, name)
			}
			if Root(got[1:]) != Root(want) {
				t.Fatalf("GOMAXPROCS %d, %s: root differs from the serial loop", procs, name)
			}
		}
	}
}

// goldenEntry is one Dump entry of the parent_wal fixture, its data by hash.
type goldenEntry struct {
	Seq     uint64 `json:"seq"`
	Kind    Kind   `json:"kind"`
	Segment string `json:"segment"`
	Sealed  bool   `json:"sealed"`
	Len     int    `json:"len"`
	SHA256  string `json:"sha256"`
}

// TestParentWalFixture: testdata/parent_wal is a WAL directory the commit
// before segments were read whole wrote (testdata/README.md); Verify,
// Dump and the per-segment batch roots must read exactly what that reader
// read (testdata/parent_wal.json).
func TestParentWalFixture(t *testing.T) {
	const dir = "testdata/parent_wal"
	raw, err := os.ReadFile("testdata/parent_wal.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		BatchRoots map[string][]string `json:"batch_roots"`
		Reports    []SegmentReport     `json:"verify"`
		Entries    []goldenEntry       `json:"dump"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	reports, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !reflect.DeepEqual(reports, want.Reports) {
		t.Fatalf("Verify reports\n%+v\nwant\n%+v", reports, want.Reports)
	}
	var got []goldenEntry
	err = Dump(dir, func(e Entry) error {
		sum := sha256.Sum256(e.Data)
		got = append(got, goldenEntry{e.Seq, e.Kind, e.Segment, e.Sealed, len(e.Data), hex.EncodeToString(sum[:])})
		return nil
	})
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !reflect.DeepEqual(got, want.Entries) {
		t.Fatalf("Dump entries differ from the parent's:\n%+v\nwant\n%+v", got, want.Entries)
	}
	for seg, roots := range want.BatchRoots {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		sc, _ := scanSegmentBytes(seg, data, true)
		ref, _ := readerScan(seg, data)
		sameScan(t, sc, ref)
		var hexRoots []string
		for _, r := range sc.roots {
			hexRoots = append(hexRoots, hexRoot(r))
		}
		if !reflect.DeepEqual(hexRoots, roots) {
			t.Fatalf("%s: batch roots %v, want %v", seg, hexRoots, roots)
		}
	}
}
