package main

import (
	"reflect"
	"testing"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/wal"
)

// entrySink keeps every entry a checkpoint encoder appends.
type entrySink []wal.Entry

func (s *entrySink) Append(kind wal.Kind, data []byte) (uint64, error) {
	*s = append(*s, wal.Entry{Seq: uint64(len(*s) + 1), Kind: kind, Data: data})
	return uint64(len(*s)), nil
}

// TestDecodeDetailRefs: wal dump reports a refs entry, as the journal's
// encoder writes it, by its live-session count, next session ID and shard
// baselines; a refs entry that does not decode degrades to no detail.
func TestDecodeDetailRefs(t *testing.T) {
	delta := &checkpoint.Delta{Manifest: checkpoint.Manifest{
		Hub:    checkpoint.HubConfig{Shards: 2, MaxSessionsPerShard: 8, TickHz: 15},
		NextID: 42,
		Shards: make([]checkpoint.ShardCounters, 2),
		Refs:   []checkpoint.SessionRef{{ID: 3, Ver: 1}, {ID: 9, Ver: 4}, {ID: 41, Ver: 2}},
	}}
	var sink entrySink
	var enc checkpoint.DeltaEncoder
	if err := enc.AppendRefs(&sink, delta); err != nil {
		t.Fatal(err)
	}
	if len(sink) != 1 || sink[0].Kind != wal.KindRefs {
		t.Fatalf("encoder appended %d entries (%+v), want one refs entry", len(sink), sink)
	}
	want := map[string]any{"sessions": 3, "next_id": uint64(42), "shards": 2}
	if got := decodeDetail(sink[0]); !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeDetail = %#v, want %#v", got, want)
	}
	torn := sink[0]
	torn.Data = torn.Data[:len(torn.Data)/2]
	if got := decodeDetail(torn); got != nil {
		t.Fatalf("decodeDetail of a torn refs entry = %#v, want nil", got)
	}
}
