package wal

import (
	"sync"

	"cognitivearm/internal/obs"
)

// WAL telemetry on the process-global registry. Appends and seals run on
// the journal cadence, not the tick path, so instrumentation is
// unconditional — the interesting numbers are fsync and seal latency (the
// durability cost), the segment/byte footprint (the compaction health), and
// the recovery truncation counter (the alerting hook: a nonzero rate means
// crashes are eating unsealed batches).

type walObs struct {
	entries     *obs.Counter
	bytes       *obs.Counter
	seals       *obs.Counter
	sealDur     *obs.Histogram
	fsyncDur    *obs.Histogram
	segments    *obs.Gauge
	activeBytes *obs.Gauge
	truncated   *obs.Counter
	events      *obs.EventRing
}

var (
	walTelOnce sync.Once
	walTelVal  *walObs
)

// walTel returns the lazily-built WAL telemetry holder. It never returns
// nil and every handle field is populated from the default registry.
func walTel() *walObs {
	walTelOnce.Do(func() {
		reg := obs.Default()
		walTelVal = &walObs{
			entries: reg.Counter("cogarm_wal_entries_total",
				"Entries appended to the write-ahead log."),
			bytes: reg.Counter("cogarm_wal_bytes_written_total",
				"Framed bytes appended to WAL segments (headers, seals, and footers excluded)."),
			seals: reg.Counter("cogarm_wal_seals_total",
				"Merkle batches sealed (each seal is one durability point)."),
			sealDur: reg.Histogram("cogarm_wal_seal_seconds",
				"Wall time of one batch seal: root computation, seal record write, and fsync.",
				obs.DurationBounds()),
			fsyncDur: reg.Histogram("cogarm_wal_fsync_seconds",
				"Wall time of each WAL segment fsync.",
				obs.DurationBounds()),
			segments: reg.Gauge("cogarm_wal_segments",
				"Segment files currently retained (finalized plus active)."),
			activeBytes: reg.Gauge("cogarm_wal_active_bytes",
				"Total bytes across retained WAL segments."),
			truncated: reg.Counter("cogarm_wal_recovery_truncated_bytes_total",
				"Bytes cut from a torn tail by crash recovery. Alert on growth: every byte here was an acknowledged-but-unsealed write lost to a crash."),
			events: obs.DefaultEvents(),
		}
	})
	return walTelVal
}

// recordTruncate reports one recovery truncation: counter plus lifecycle
// event carrying the bytes cut and the valid-but-unsealed entries dropped.
func recordTruncate(bytes int64, entries int) {
	t := walTel()
	t.truncated.Add(uint64(bytes))
	t.events.Record(obs.EvWalTruncate, -1, 0, bytes, int64(entries))
}
