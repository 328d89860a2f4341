package obs

import (
	"testing"
)

func TestEventRingRecordAndSnapshot(t *testing.T) {
	r := NewEventRing(64, 4)
	r.Record(EvAdmit, 2, 7, 0, 0)
	r.Record(EvEvict, 2, 7, 0, 0)
	r.Record(EvCheckpointFull, -1, 0, 4096, 1_000_000)
	evs := r.Snapshot(nil)
	if len(evs) != 3 {
		t.Fatalf("snapshot holds %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("snapshot must be sorted by sequence")
		}
	}
	if evs[0].Type != EvAdmit || evs[0].Shard != 2 || evs[0].Session != 7 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[2].A != 4096 || evs[2].B != 1_000_000 {
		t.Fatalf("checkpoint args = %d,%d", evs[2].A, evs[2].B)
	}
	if r.Recorded() != 3 || r.Overwritten() != 0 {
		t.Fatalf("recorded=%d overwritten=%d", r.Recorded(), r.Overwritten())
	}
}

func TestEventRingBoundedLoss(t *testing.T) {
	const capacity = 32
	r := NewEventRing(capacity, 4)
	const n = 100
	for i := 0; i < n; i++ {
		r.Record(EvAdmit, 0, uint64(i), 0, 0)
	}
	if r.Recorded() != n {
		t.Fatalf("recorded = %d, want %d", r.Recorded(), n)
	}
	if r.Overwritten() != n-capacity {
		t.Fatalf("overwritten = %d, want %d", r.Overwritten(), n-capacity)
	}
	evs := r.Snapshot(nil)
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	// The retained window is the newest events, one per surviving slot.
	for _, e := range evs {
		if e.Seq <= n-capacity {
			t.Fatalf("event seq %d should have been overwritten", e.Seq)
		}
	}
}

func TestEventTypeNames(t *testing.T) {
	cases := map[EventType]string{
		EvAdmit:          "admit",
		EvRefuseFull:     "refuse_full",
		EvRefuseOverload: "refuse_overload",
		EvEvict:          "evict",
		EvCheckpointFull: "checkpoint_full",
		6:                "checkpoint_incremental", // retired; WAL audit entries persist the value
		EvCheckpointLoad: "checkpoint_load",
		EvMigrateIn:      "migrate_in",
		EvMigrateOut:     "migrate_out",
		EvJoin:           "join",
		EvLeave:          "leave",
		EvDrain:          "drain",
		EvInletDrop:      "inlet_drop",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if EvCheckpointLoad != 7 {
		t.Fatalf("EvCheckpointLoad = %d: the retired value 6 was reused", EvCheckpointLoad)
	}
	if a, b := EvCheckpointFull.ArgNames(); a != "bytes" || b != "dur_ns" {
		t.Fatalf("checkpoint args named %q,%q", a, b)
	}
	if a, _ := EvMigrateIn.ArgNames(); a != "sessions" {
		t.Fatalf("migrate arg named %q", a)
	}
}
