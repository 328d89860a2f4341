package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The session-record codec: the one byte layout every SessionRecord travels
// in — WAL KindSession entries, in a segment, in a checkpoint's fleet file or
// on a socket stream between nodes. The normative table is in ARCHITECTURE.md
// ("Session record layout"). Summary, all little-endian:
//
//	off  0  ID u64 | Ver u64 | SampleAcc f64 | IdleTicks i64      ← peekable
//	off 32  version u8 (=1) | Fed u8 (0|1)
//	off 34  Shard i64 | Channels i64 | SampleRateHz f64 | Decoded u64 |
//	        Agreed u64 | Filled i64 | Head i64 | N i64
//	off 98  ModelKey str | Tag str | NormMean []f64 | NormStd []f64 |
//	        Actions []u64 | Window []f64 | Filter [][]f64 | Recent []i64 |
//	        Pending [](Seq u64 | Timestamp f64 | Values []f64)
//
// Every string and slice is a u32 element count followed by its elements;
// floats travel as their IEEE-754 bit pattern, so NaN payloads, ±Inf and −0
// survive. A zero count decodes as nil, which makes the encoding canonical:
// encode(decode(b)) == b byte for byte. The framing around a record (its WAL
// frame's CRC and its batch's Merkle root) supplies integrity; the decoder supplies
// structure — it checks every count against the bytes that remain before it
// allocates, so a corrupt length costs an error, never memory.

const (
	// sessionRecordVersion is the layout generation stored at offset 32.
	sessionRecordVersion = 1
	// sessionFixedLen is the length of the scalar block preceding the first
	// length-prefixed field; no valid record is shorter.
	sessionFixedLen = 98
)

// AppendSessionRecord appends rec's encoding to dst and returns the extended
// slice. It never fails: every SessionRecord value has exactly one encoding.
// Into a buffer with enough capacity it does not allocate.
func AppendSessionRecord(dst []byte, rec *SessionRecord) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, rec.ID)
	dst = le.AppendUint64(dst, rec.Ver)
	dst = le.AppendUint64(dst, math.Float64bits(rec.SampleAcc))
	dst = le.AppendUint64(dst, uint64(int64(rec.IdleTicks)))
	fed := byte(0)
	if rec.Fed {
		fed = 1
	}
	dst = append(dst, sessionRecordVersion, fed)
	dst = le.AppendUint64(dst, uint64(int64(rec.Shard)))
	dst = le.AppendUint64(dst, uint64(int64(rec.Channels)))
	dst = le.AppendUint64(dst, math.Float64bits(rec.SampleRateHz))
	dst = le.AppendUint64(dst, rec.Decoded)
	dst = le.AppendUint64(dst, rec.Agreed)
	dst = le.AppendUint64(dst, uint64(int64(rec.Windower.Filled)))
	dst = le.AppendUint64(dst, uint64(int64(rec.Debounce.Head)))
	dst = le.AppendUint64(dst, uint64(int64(rec.Debounce.N)))

	dst = appendString(dst, rec.ModelKey)
	dst = appendString(dst, rec.Tag)
	dst = appendFloats(dst, rec.NormMean)
	dst = appendFloats(dst, rec.NormStd)
	dst = le.AppendUint32(dst, uint32(len(rec.Actions)))
	for _, a := range rec.Actions {
		dst = le.AppendUint64(dst, a)
	}
	dst = appendFloats(dst, rec.Windower.Window)
	dst = le.AppendUint32(dst, uint32(len(rec.Windower.Filter)))
	for _, ch := range rec.Windower.Filter {
		dst = appendFloats(dst, ch)
	}
	dst = le.AppendUint32(dst, uint32(len(rec.Debounce.Recent)))
	for _, r := range rec.Debounce.Recent {
		dst = le.AppendUint64(dst, uint64(int64(r)))
	}
	dst = le.AppendUint32(dst, uint32(len(rec.Pending)))
	for i := range rec.Pending {
		p := &rec.Pending[i]
		dst = le.AppendUint64(dst, p.Seq)
		dst = le.AppendUint64(dst, math.Float64bits(p.Timestamp))
		dst = appendFloats(dst, p.Values)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, v []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// Records is an arena of encoded session records, back to back in one
// buffer: what a live capture produces, and what the WAL, a socket stream and
// a fleet file take as they are. An arena reused capture after capture stops
// allocating once it has held its largest fleet. The zero value is empty.
type Records struct {
	buf  []byte
	ends []int // end offset in buf of each record
}

// Reset empties the arena, keeping its capacity. Slices At returned before
// are overwritten by the next Append.
func (r *Records) Reset() { r.buf, r.ends = r.buf[:0], r.ends[:0] }

// Append encodes rec onto the end of the arena.
func (r *Records) Append(rec *SessionRecord) {
	r.buf = AppendSessionRecord(r.buf, rec)
	r.ends = append(r.ends, len(r.buf))
}

// Len returns how many records the arena holds.
func (r *Records) Len() int { return len(r.ends) }

// At returns record i's encoding, aliasing the arena until its next Reset.
func (r *Records) At(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.buf[start:r.ends[i]:r.ends[i]]
}

// PeekSessionRecord reads the fixed 32-byte head of an encoded record — the
// fields every ref overlay and replay fold needs — without decoding the rest.
// The returned ref's Seq is zero.
func PeekSessionRecord(b []byte) (SessionRef, error) {
	if len(b) < sessionFixedLen {
		return SessionRef{}, fmt.Errorf("%w: session record of %d bytes, fixed block needs %d", ErrCorrupt, len(b), sessionFixedLen)
	}
	if v := b[32]; v != sessionRecordVersion {
		return SessionRef{}, fmt.Errorf("%w: session record layout %d, reader supports %d", ErrVersion, v, sessionRecordVersion)
	}
	le := binary.LittleEndian
	idle, err := toInt(le.Uint64(b[24:]))
	if err != nil {
		return SessionRef{}, err
	}
	return SessionRef{
		ID:        le.Uint64(b),
		Ver:       le.Uint64(b[8:]),
		SampleAcc: math.Float64frombits(le.Uint64(b[16:])),
		IdleTicks: idle,
	}, nil
}

// DecodeSessionRecord decodes one record from b — all of b: trailing bytes
// are an error — into rec, which is overwritten on success and untouched on
// failure. The decoded record shares no memory with b. Errors wrap
// ErrCorrupt (or ErrVersion for an unknown layout byte).
func DecodeSessionRecord(b []byte, rec *SessionRecord) error {
	head, err := PeekSessionRecord(b)
	if err != nil {
		return err
	}
	if b[33] > 1 {
		return fmt.Errorf("%w: session record fed byte %d", ErrCorrupt, b[33])
	}
	out := SessionRecord{
		ID: head.ID, Ver: head.Ver, SampleAcc: head.SampleAcc, IdleTicks: head.IdleTicks,
		Fed: b[33] == 1,
	}
	d := decoder{b: b[34:]}
	out.Shard = d.int()
	out.Channels = d.int()
	out.SampleRateHz = math.Float64frombits(d.u64())
	out.Decoded = d.u64()
	out.Agreed = d.u64()
	out.Windower.Filled = d.int()
	out.Debounce.Head = d.int()
	out.Debounce.N = d.int()

	out.ModelKey = d.str()
	out.Tag = d.str()
	out.NormMean = d.floats()
	out.NormStd = d.floats()
	if n := d.count(8); n > 0 {
		out.Actions = make([]uint64, n)
		for i := range out.Actions {
			out.Actions[i] = d.u64()
		}
	}
	out.Windower.Window = d.floats()
	if n := d.count(4); n > 0 { // each channel is at least its own count
		out.Windower.Filter = make([][]float64, n)
		for i := range out.Windower.Filter {
			out.Windower.Filter[i] = d.floats()
		}
	}
	if n := d.count(8); n > 0 {
		out.Debounce.Recent = make([]int, n)
		for i := range out.Debounce.Recent {
			out.Debounce.Recent[i] = d.int()
		}
	}
	if n := d.count(8 + 8 + 4); n > 0 {
		out.Pending = make([]PendingSample, n)
		for i := range out.Pending {
			p := &out.Pending[i]
			p.Seq = d.u64()
			p.Timestamp = math.Float64frombits(d.u64())
			p.Values = d.floats()
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: session record has %d trailing bytes", ErrCorrupt, len(d.b))
	}
	if d.err != nil {
		return d.err
	}
	*rec = out
	return nil
}

// PeekSessionCounters reads Decoded and Agreed from the fixed block of an
// encoded record — what a journal's decision row carries — without decoding
// the rest.
func PeekSessionCounters(b []byte) (decoded, agreed uint64, err error) {
	if _, err := PeekSessionRecord(b); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(b[58:]), binary.LittleEndian.Uint64(b[66:]), nil
}

// CheckSessionRecord returns the error DecodeSessionRecord would return for
// b, without decoding it: the same walk over the same counts and bounds, with
// every field skipped instead of copied out, so an accepted record costs no
// allocation. A holder that keeps records as bytes verifies them with it and
// decodes only when it needs the values.
func CheckSessionRecord(b []byte) error {
	if _, err := PeekSessionRecord(b); err != nil {
		return err
	}
	if b[33] > 1 {
		return fmt.Errorf("%w: session record fed byte %d", ErrCorrupt, b[33])
	}
	d := decoder{b: b[34:]}
	d.int()   // Shard
	d.int()   // Channels
	d.u64()   // SampleRateHz
	d.u64()   // Decoded
	d.u64()   // Agreed
	d.int()   // Windower.Filled
	d.int()   // Debounce.Head
	d.int()   // Debounce.N
	d.skip(1) // ModelKey
	d.skip(1) // Tag
	d.skip(8) // NormMean
	d.skip(8) // NormStd
	d.skip(8) // Actions
	d.skip(8) // Windower.Window
	for n := d.count(4); n > 0; n-- {
		d.skip(8) // one Windower.Filter channel
	}
	for n := d.count(8); n > 0; n-- {
		d.int() // one Debounce.Recent label
	}
	for n := d.count(8 + 8 + 4); n > 0; n-- {
		d.u64()   // Seq
		d.u64()   // Timestamp
		d.skip(8) // Values
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: session record has %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return d.err
}

// decoder consumes a byte slice front to back. The first failure sticks:
// later reads return zero values and allocate nothing, so DecodeSessionRecord
// checks err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(what string, need uint64) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: session record truncated: %s needs %d bytes, %d remain", ErrCorrupt, what, need, len(d.b))
	}
	d.b = nil
}

func (d *decoder) u64() uint64 {
	if len(d.b) < 8 {
		d.fail("u64", 8)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) int() int {
	v, err := toInt(d.u64())
	if err != nil && d.err == nil {
		d.err = err
		d.b = nil
	}
	return v
}

// count reads a u32 element count and rejects it unless that many elements of
// at least elemMin bytes each still fit in the input — the check that keeps a
// corrupt prefix from sizing an allocation.
func (d *decoder) count(elemMin int) int {
	if len(d.b) < 4 {
		d.fail("length prefix", 4)
		return 0
	}
	n := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	if uint64(n)*uint64(elemMin) > uint64(len(d.b)) { // before any make
		d.fail("length prefix's elements", uint64(n)*uint64(elemMin))
		return 0
	}
	return int(n)
}

// skip passes over one counted field of elemSize-byte elements.
func (d *decoder) skip(elemSize int) {
	n := d.count(elemSize)
	d.b = d.b[n*elemSize:]
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return out
}

// toInt narrows a wire i64 to the platform int, refusing values a 32-bit
// build cannot hold rather than wrapping them.
func toInt(u uint64) (int, error) {
	v := int64(u)
	if int64(int(v)) != v {
		return 0, fmt.Errorf("%w: session record integer %d overflows int", ErrCorrupt, v)
	}
	return int(v), nil
}
