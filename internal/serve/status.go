package serve

import (
	"errors"
	"runtime"
	"time"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/cpu"
)

// StatusDoc is the /statusz document: one JSON object answering "what is
// this daemon doing right now" — fleet and per-shard serving state, health,
// newest checkpoint, process runtime stats, and (in cluster mode)
// the ring view. Machines get /metrics; humans hitting /statusz get this.
type StatusDoc struct {
	Now        string  `json:"now"`
	UptimeSec  float64 `json:"uptime_sec"`
	Goroutines int     `json:"goroutines"`
	HeapBytes  uint64  `json:"heap_bytes"`

	// Kernels names the kernel set serving (cpu.Kernels): "avx512" (the
	// GEMM's AVX-512F tile, AVX2 under the filter bank and the feature
	// accumulator), "avx2" (the AVX2 assembly under all three) or
	// "portable" (their Go twins). All three give identical output.
	Kernels string `json:"kernels"`

	Healthy bool   `json:"healthy"`
	Health  string `json:"health,omitempty"` // the failing probe's error text

	Fleet FleetSnapshot `json:"fleet"`

	// Checkpoint reports the newest on-disk checkpoint; nil when the daemon
	// runs without persistence.
	Checkpoint *CheckpointStatus `json:"checkpoint,omitempty"`

	// Wal is the write-ahead-log status (wal.Log.Status); nil when the
	// daemon journals nothing.
	Wal any `json:"wal,omitempty"`

	// Cluster is the node's ring view; nil on a single-node daemon.
	Cluster any `json:"cluster,omitempty"`
}

// CheckpointStatus summarises the newest checkpoint under a root.
type CheckpointStatus struct {
	Root string `json:"root"`
	// Seq is the newest checkpoint's sequence number.
	Seq uint64 `json:"seq"`
	// Sessions is the fleet size the newest manifest records.
	Sessions int    `json:"sessions"`
	Error    string `json:"error,omitempty"` // manifest read failure, if any
}

var statusStart = time.Now()

// Status assembles the hub's /statusz document. ckptRoot names the
// checkpoint directory ("" = no persistence section); cluster, when non-nil,
// supplies the cluster section (e.g. cluster.Node.Status). A journaling
// daemon attaches the WAL section afterwards (Journal.Status).
func (h *Hub) Status(ckptRoot string, cluster func() any) StatusDoc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	doc := StatusDoc{
		Now:        time.Now().UTC().Format(time.RFC3339Nano),
		UptimeSec:  time.Since(statusStart).Seconds(),
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  ms.HeapAlloc,
		Kernels:    cpu.Kernels(),
		Healthy:    true,
		Fleet:      h.Snapshot(),
	}
	if err := h.Health(); err != nil {
		doc.Healthy = false
		doc.Health = err.Error()
	}
	if ckptRoot != "" {
		doc.Checkpoint = checkpointStatus(ckptRoot)
	}
	if cluster != nil {
		doc.Cluster = cluster()
	}
	return doc
}

// checkpointStatus reads the newest manifest under root into a status
// summary. Failures are reported in the document, never returned: /statusz
// must render while the disk misbehaves.
func checkpointStatus(root string) *CheckpointStatus {
	cs := &CheckpointStatus{Root: root}
	man, err := checkpoint.LatestManifest(root)
	if err != nil {
		if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			cs.Error = err.Error()
		}
		return cs
	}
	cs.Seq = man.Seq
	cs.Sessions = man.Sessions
	return cs
}
