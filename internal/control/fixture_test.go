package control_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/control"
	"cognitivearm/internal/dataset"
)

// fixtureSample is the deterministic input stream the fixture generator fed
// the parent commit's Windower: splitmix64 mapped to [-40, 40), self-contained
// so the fixture depends on no RNG the repo may later change.
func fixtureSample(state *uint64, dst []float64) {
	for i := range dst {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[i] = (float64(z>>11)/(1<<53) - 0.5) * 80
	}
}

func windowHash(data []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestParentSessionRecordRestores is the cross-version check on the signal
// path. testdata/parent_session.rec is a session record the commit before
// the filter bank and the mirror buffer wrote (per-channel cascades, a window
// that shifted) 37 pushes past the first wrap of a 100×16 window;
// testdata/parent_windows.fnv64 holds the FNV-64a of that commit's window
// bits after each of the next 300 pushes (see testdata/README.md). The record
// must restore here, re-encode to the same bytes, and continue bit for bit.
func TestParentSessionRecordRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent_session.rec")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent_windows.fnv64")
	if err != nil {
		t.Fatal(err)
	}
	var rec checkpoint.SessionRecord
	if err := checkpoint.DecodeSessionRecord(raw, &rec); err != nil {
		t.Fatal(err)
	}
	const rows, warm = 100, 100 + 37
	w, err := control.NewWindower(rec.SampleRateHz, rec.Channels, rows, dataset.Stats{Mean: rec.NormMean, Std: rec.NormStd})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetState(rec.Windower); err != nil {
		t.Fatalf("parent-written record refused: %v", err)
	}
	rec.Windower = w.State()
	if got := checkpoint.AppendSessionRecord(nil, &rec); !bytes.Equal(got, raw) {
		t.Fatal("restored windower re-encodes to different session-record bytes")
	}

	seed := uint64(15)
	smp := make([]float64, rec.Channels)
	for i := 0; i < warm; i++ { // the samples the parent consumed before the snapshot
		fixtureSample(&seed, smp)
	}
	for i := 0; i < len(want)/8; i++ {
		fixtureSample(&seed, smp)
		w.Push(smp)
		if got, exp := windowHash(w.Window().Data), binary.LittleEndian.Uint64(want[8*i:]); got != exp {
			t.Fatalf("push %d after restore: window hash %#x, parent commit had %#x", i, got, exp)
		}
	}
}
