package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cognitivearm/internal/control"
)

// The codec is a trust boundary: its input is whatever a crashed disk, a torn
// TCP stream or a hostile peer left behind. These tests pin the three things
// callers rely on — every record round-trips exactly, the encoding is
// canonical, and no input makes the decoder panic or over-allocate.

// Floats a naive codec loses: NaNs with payloads (quiet and signalling),
// infinities, negative zero, a denormal.
var oddFloats = []float64{
	math.Float64frombits(0x7ff8000000000123), // quiet NaN with payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
}

func randFloats(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(8) == 0 {
			out[i] = oddFloats[rng.Intn(len(oddFloats))]
		} else {
			out[i] = rng.NormFloat64() * 50
		}
	}
	return out
}

// randRecord draws a record across the shapes serving produces and the ones
// it merely permits: unfilled windows, no pending samples, empty (non-nil)
// slices, ragged filter state, long strings.
func randRecord(rng *rand.Rand) SessionRecord {
	channels := 1 + rng.Intn(16)
	rows := rng.Intn(40)
	rec := SessionRecord{
		ID:           rng.Uint64(),
		Shard:        rng.Intn(8),
		Ver:          rng.Uint64(),
		ModelKey:     strings.Repeat("k", rng.Intn(300)),
		Tag:          strings.Repeat("demo:τ", rng.Intn(200)),
		Channels:     channels,
		SampleRateHz: 125,
		NormMean:     randFloats(rng, channels),
		NormStd:      randFloats(rng, channels),
		SampleAcc:    randFloats(rng, 1)[0],
		Fed:          rng.Intn(2) == 0,
		IdleTicks:    rng.Intn(100) - 1, // -1: ints are signed on the wire
		Decoded:      rng.Uint64(),
		Agreed:       rng.Uint64(),
		Actions:      []uint64{rng.Uint64(), 0, rng.Uint64()},
		Windower: control.WindowerState{
			Filled: rng.Intn(rows + 1), // usually short of a full window
			Window: randFloats(rng, rows*channels),
			Filter: make([][]float64, channels),
		},
		Debounce: control.DebouncerState{Recent: []int{rng.Intn(4), -1, 2}, Head: rng.Intn(3), N: rng.Intn(4)},
	}
	for ch := range rec.Windower.Filter {
		rec.Windower.Filter[ch] = randFloats(rng, rng.Intn(9)) // ragged, some empty
	}
	switch rng.Intn(3) {
	case 0: // nil Pending
	case 1:
		rec.Pending = []PendingSample{} // empty, non-nil
	default:
		rec.Pending = make([]PendingSample, 1+rng.Intn(5))
		for i := range rec.Pending {
			rec.Pending[i] = PendingSample{Seq: rng.Uint64(), Timestamp: randFloats(rng, 1)[0], Values: randFloats(rng, rng.Intn(channels+1))}
		}
	}
	return rec
}

// sameBits is reflect.DeepEqual with the two adjustments the codec's contract
// makes: floats compare by bit pattern (NaN payloads and −0 matter), and an
// empty slice equals a nil one (zero counts decode as nil).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// hasEmptySlice reports whether any slice reachable from v is empty but not
// nil — what a decoded record must never contain.
func hasEmptySlice(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return !v.IsNil()
		}
		for i := 0; i < v.Len(); i++ {
			if hasEmptySlice(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasEmptySlice(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

func TestSessionRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf []byte
	for i := 0; i < 500; i++ {
		rec := randRecord(rng)
		buf = AppendSessionRecord(buf[:0], &rec)
		var got SessionRecord
		if err := DecodeSessionRecord(buf, &got); err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !sameBits(reflect.ValueOf(rec), reflect.ValueOf(got)) {
			t.Fatalf("record %d changed in flight:\n got %+v\nwant %+v", i, got, rec)
		}
		if hasEmptySlice(reflect.ValueOf(got)) {
			t.Fatalf("record %d decoded an empty slice as non-nil: %+v", i, got)
		}
		if again := AppendSessionRecord(nil, &got); !bytes.Equal(again, buf) {
			t.Fatalf("record %d: re-encoding the decoded record changed %d→%d bytes", i, len(buf), len(again))
		}
		head, err := PeekSessionRecord(buf)
		if err != nil {
			t.Fatalf("record %d: peek: %v", i, err)
		}
		want := SessionRef{ID: rec.ID, Ver: rec.Ver, SampleAcc: rec.SampleAcc, IdleTicks: rec.IdleTicks}
		if !sameBits(reflect.ValueOf(head), reflect.ValueOf(want)) {
			t.Fatalf("record %d: peeked %+v, want %+v", i, head, want)
		}
	}
}

// TestSessionRecordHeaderOffsets pins the peekable prefix byte for byte: it is
// the part of the layout other code reads without a decode.
func TestSessionRecordHeaderOffsets(t *testing.T) {
	rec := SessionRecord{ID: 0x0102030405060708, Ver: 0x1112131415161718, SampleAcc: -0.75, IdleTicks: -2, Fed: true}
	b := AppendSessionRecord(nil, &rec)
	le := binary.LittleEndian
	if le.Uint64(b[0:]) != rec.ID || le.Uint64(b[8:]) != rec.Ver ||
		le.Uint64(b[16:]) != math.Float64bits(-0.75) || int64(le.Uint64(b[24:])) != -2 ||
		b[32] != sessionRecordVersion || b[33] != 1 {
		t.Fatalf("header bytes % x", b[:34])
	}
	if want := sessionFixedLen + 9*4; len(b) != want { // nine zero counts
		t.Fatalf("empty record is %d bytes, want %d", len(b), want)
	}
}

func TestSessionRecordRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rec := randRecord(rng)
	rec.Pending = []PendingSample{{Seq: 1, Timestamp: 2, Values: []float64{3}}}
	good := AppendSessionRecord(nil, &rec)
	var got SessionRecord

	for cut := 0; cut < len(good); cut++ {
		if err := DecodeSessionRecord(good[:cut], &got); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d of %d bytes: %v, want ErrCorrupt", cut, len(good), err)
		}
	}
	if err := DecodeSessionRecord(append(good[:len(good):len(good)], 0), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("one trailing byte: %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(got, SessionRecord{}) {
		t.Fatalf("failed decodes wrote into the destination: %+v", got)
	}

	patch := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] = v
		return b
	}
	if err := DecodeSessionRecord(patch(32, sessionRecordVersion+1), &got); !errors.Is(err, ErrVersion) {
		t.Fatalf("future layout byte: %v, want ErrVersion", err)
	}
	if _, err := PeekSessionRecord(patch(32, 0)); !errors.Is(err, ErrVersion) {
		t.Fatalf("peek of layout 0: %v, want ErrVersion", err)
	}
	if err := DecodeSessionRecord(patch(33, 2), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fed byte 2: %v, want ErrCorrupt", err)
	}
}

// prefixOffsets returns the offset of every length prefix in rec's encoding.
func prefixOffsets(rec *SessionRecord) []int {
	off := sessionFixedLen
	var out []int
	next := func(payload int) { out = append(out, off); off += 4 + payload }
	next(len(rec.ModelKey))
	next(len(rec.Tag))
	next(8 * len(rec.NormMean))
	next(8 * len(rec.NormStd))
	next(8 * len(rec.Actions))
	next(8 * len(rec.Windower.Window))
	next(0) // Filter's outer count; its channels follow
	for _, ch := range rec.Windower.Filter {
		next(8 * len(ch))
	}
	next(8 * len(rec.Debounce.Recent))
	next(0) // Pending's outer count
	for _, p := range rec.Pending {
		off += 16
		next(8 * len(p.Values))
	}
	return out
}

// TestSessionRecordLengthPrefixBound: a count that promises more elements
// than the input holds is refused before it can size an allocation — at every
// prefix position, for counts from "one too many" to 2³²−1.
func TestSessionRecordLengthPrefixBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rec := randRecord(rng)
	rec.Pending = []PendingSample{{Values: []float64{1, 2}}, {}}
	good := AppendSessionRecord(nil, &rec)
	offs := prefixOffsets(&rec)
	if last := offs[len(offs)-1]; last+4 != len(good) { // the final Values is empty
		t.Fatalf("prefix walk ended at %d of %d bytes", last+4, len(good))
	}
	var got SessionRecord
	var before, after runtime.MemStats
	for _, off := range offs {
		for _, n := range []uint32{uint32(len(good)), 1 << 24, math.MaxUint32} {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[off:], n)
			runtime.ReadMemStats(&before)
			err := DecodeSessionRecord(b, &got)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("prefix at %d claiming %d elements: %v, want ErrCorrupt", off, n, err)
			}
			// Whatever was decoded before the bad prefix is bounded by the
			// input; the claimed count (≥ 16 MiB of elements for the larger
			// two) must never be.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(good)) {
				t.Fatalf("prefix at %d claiming %d elements: decoder allocated %d bytes for a %d-byte input", off, n, grew, len(good))
			}
		}
	}
}

func TestAppendSessionRecordZeroAlloc(t *testing.T) {
	rec := testState(t).Sessions[0]
	buf := AppendSessionRecord(nil, &rec) // warm: capacity now fits the record
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSessionRecord(buf[:0], &rec)
	}); allocs != 0 {
		t.Fatalf("AppendSessionRecord into a warm buffer allocates %.0f times per record, want 0", allocs)
	}
}

// FuzzDecodeSessionRecord: no input panics the decoder, and any input it
// accepts is the canonical encoding of what it decoded.
func FuzzDecodeSessionRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		rec := randRecord(rng)
		f.Add(AppendSessionRecord(nil, &rec))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var rec SessionRecord
		if err := DecodeSessionRecord(b, &rec); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("decode error %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		if again := AppendSessionRecord(nil, &rec); !bytes.Equal(again, b) {
			t.Fatalf("accepted a non-canonical encoding: %d bytes in, %d bytes re-encoded", len(b), len(again))
		}
	})
}

// TestCheckSessionRecordAgreesWithDecode: the walk that verifies a record
// without decoding it returns exactly the decoder's verdict — every cut of a
// record, a trailing byte, every length prefix overclaiming, damaged layout
// and fed bytes — and accepts a good record without allocating.
func TestCheckSessionRecordAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		rec := randRecord(rng)
		good := AppendSessionRecord(nil, &rec)
		inputs := [][]byte{good, append(good[:len(good):len(good)], 0)}
		for cut := 0; cut < len(good); cut++ {
			inputs = append(inputs, good[:cut])
		}
		for _, off := range prefixOffsets(&rec) {
			for _, n := range []uint32{1, uint32(len(good)), math.MaxUint32} {
				b := append([]byte(nil), good...)
				binary.LittleEndian.PutUint32(b[off:], binary.LittleEndian.Uint32(b[off:])+n)
				inputs = append(inputs, b)
			}
		}
		for off, v := range map[int]byte{32: sessionRecordVersion + 1, 33: 2} {
			b := append([]byte(nil), good...)
			b[off] = v
			inputs = append(inputs, b)
		}
		for _, b := range inputs {
			checkAgrees(t, b)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := CheckSessionRecord(good); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("record %d: CheckSessionRecord allocates %.0f times on a good record, want 0", i, allocs)
		}
	}
}

// checkAgrees fails t unless CheckSessionRecord and DecodeSessionRecord give
// b the same verdict, down to the error text.
func checkAgrees(t *testing.T, b []byte) {
	t.Helper()
	var rec SessionRecord
	derr, cerr := DecodeSessionRecord(b, &rec), CheckSessionRecord(b)
	if (derr == nil) != (cerr == nil) || derr != nil && derr.Error() != cerr.Error() {
		t.Fatalf("%d-byte input: decode says %v, check says %v", len(b), derr, cerr)
	}
}

// FuzzCheckSessionRecord: CheckSessionRecord accepts an input if and only if
// DecodeSessionRecord does, with the same error. Seeded from the decoder's
// committed corpus as well as its in-code seeds.
func FuzzCheckSessionRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		rec := randRecord(rng)
		f.Add(AppendSessionRecord(nil, &rec))
	}
	for _, seed := range corpusOf(f, "FuzzDecodeSessionRecord") {
		f.Add(seed)
	}
	f.Fuzz(checkAgrees)
}

// corpusOf reads the single []byte argument of every committed seed of the
// named fuzz target (testdata/fuzz/<name>, "go test fuzz v1" files).
func corpusOf(tb testing.TB, name string) [][]byte {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		head, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		inner, ok := strings.CutPrefix(strings.TrimSpace(arg), "[]byte(")
		if !ok || head != "go test fuzz v1" || !strings.HasSuffix(inner, ")") {
			tb.Fatalf("%s: not a one-[]byte corpus file", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(inner, ")"))
		if err != nil {
			tb.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(s))
	}
	return out
}
