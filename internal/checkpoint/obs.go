package checkpoint

import (
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"cognitivearm/internal/obs"
)

// Checkpoint telemetry: every Save and Load reports to the process-global
// obs registry and event ring, so an operator can see from /metrics what
// checkpoints cost and from /events when each landed and how big it was.
// Checkpoints are rare, off the tick path, and already dominated by disk
// I/O, so this is unconditional — there is no DisableTelemetry knob here.

type ckptObs struct {
	saves    *obs.Counter
	saveErrs *obs.Counter
	loads    *obs.Counter
	loadErrs *obs.Counter
	bytes    *obs.Counter
	dur      *obs.Histogram
	size     *obs.Histogram
	events   *obs.EventRing
}

var (
	ckptTelOnce sync.Once
	ckptTelVal  *ckptObs
)

// ckptTel returns the lazily-built checkpoint telemetry holder. It never
// returns nil and every handle field is populated from the default
// registry.
func ckptTel() *ckptObs {
	ckptTelOnce.Do(func() {
		reg := obs.Default()
		ckptTelVal = &ckptObs{
			saves: reg.Counter("cogarm_checkpoint_saves_total",
				"Checkpoints written."),
			saveErrs: reg.Counter("cogarm_checkpoint_save_errors_total",
				"Checkpoint saves that failed before publishing."),
			loads: reg.Counter("cogarm_checkpoint_loads_total",
				"Checkpoint directories loaded successfully."),
			loadErrs: reg.Counter("cogarm_checkpoint_load_errors_total",
				"Checkpoint loads that failed (corruption, version mismatch)."),
			bytes: reg.Counter("cogarm_checkpoint_bytes_written_total",
				"Bytes written to published checkpoint directories."),
			dur: reg.Histogram("cogarm_checkpoint_save_seconds",
				"Wall time of checkpoint.Save (capture excluded).",
				obs.DurationBounds()),
			// Checkpoint directories run kilobytes (a handful of sessions on
			// a forest) to hundreds of megabytes (dense fleet with NN models).
			size: reg.Histogram("cogarm_checkpoint_size_bytes",
				"On-disk size of each published checkpoint directory.",
				obs.ExponentialBounds(256, 4, 14)),
			events: obs.DefaultEvents(),
		}
	})
	return ckptTelVal
}

// recordSave reports one published checkpoint: counters, size and duration
// histograms, and a lifecycle event carrying bytes + duration.
func recordSave(dir string, start time.Time) {
	t := ckptTel()
	bytes := dirSize(dir)
	durNs := time.Since(start).Nanoseconds()
	t.saves.Inc()
	t.bytes.Add(uint64(bytes))
	t.dur.ObserveDuration(durNs)
	t.size.Observe(float64(bytes))
	t.events.Record(obs.EvCheckpointFull, -1, 0, bytes, durNs)
}

// dirSize sums the regular-file bytes under dir (best effort: a racing prune
// or unreadable entry degrades to a partial sum, never an error).
func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
