package cluster

import (
	"sync"

	"cognitivearm/internal/obs"
)

// Cluster telemetry: membership and migration traffic on the process-global
// obs registry and event ring. Cluster operations are control-plane rare
// (joins, drains, rebalances), so instrumentation is unconditional. Processes
// hosting several nodes (tests, loadgen cluster mode) share the series — the
// counters aggregate across nodes and the members gauge tracks the ring of
// whichever node last changed membership, which coincide in the one-node-per-
// process production shape.

type clusterObs struct {
	members       *obs.Gauge
	migrationsIn  *obs.Counter
	migrationsOut *obs.Counter
	migrateFails  *obs.Counter
	joins         *obs.Counter
	leaves        *obs.Counter

	// High-availability plane: heartbeat outcomes, detector reaps, failover
	// promotions, and the replication tail's traffic and health.
	hbOK             *obs.Counter
	hbFail           *obs.Counter
	reaps            *obs.Counter
	failovers        *obs.Counter
	promoted         *obs.Counter
	replBatchesOut   *obs.Counter
	replBatchesIn    *obs.Counter
	replRecords      *obs.Counter
	replFails        *obs.Counter
	replBackoffSkips *obs.Counter
	replLag          *obs.Gauge
	replicaSessions  *obs.Gauge

	events *obs.EventRing
}

var (
	clusterTelOnce sync.Once
	clusterTelVal  *clusterObs
)

// clusterTel returns the lazily-built cluster telemetry holder. It never
// returns nil and every handle field is populated from the default
// registry.
func clusterTel() *clusterObs {
	clusterTelOnce.Do(func() {
		reg := obs.Default()
		clusterTelVal = &clusterObs{
			members: reg.Gauge("cogarm_cluster_members",
				"Ring members in this node's membership view."),
			migrationsIn: reg.Counter("cogarm_cluster_migrated_sessions_total",
				"Sessions moved by live migration, by direction.",
				obs.L("direction", "in")),
			migrationsOut: reg.Counter("cogarm_cluster_migrated_sessions_total",
				"Sessions moved by live migration, by direction.",
				obs.L("direction", "out")),
			migrateFails: reg.Counter("cogarm_cluster_migration_failures_total",
				"Migration exchanges that failed (sender side; unconsumed sessions were restored locally)."),
			joins: reg.Counter("cogarm_cluster_member_joins_total",
				"Members added to this node's ring (own join included)."),
			leaves: reg.Counter("cogarm_cluster_member_leaves_total",
				"Members removed from this node's ring (own drain included)."),
			hbOK: reg.Counter("cogarm_cluster_heartbeats_total",
				"Heartbeat exchanges by result.",
				obs.L("result", "ok")),
			hbFail: reg.Counter("cogarm_cluster_heartbeats_total",
				"Heartbeat exchanges by result.",
				obs.L("result", "fail")),
			reaps: reg.Counter("cogarm_cluster_member_reaps_total",
				"Members removed by the failure detector (missed heartbeats), ghost members from failed leave notifications included."),
			failovers: reg.Counter("cogarm_cluster_failovers_total",
				"Failovers performed by this node (replica sets promoted to live serving)."),
			promoted: reg.Counter("cogarm_cluster_promoted_sessions_total",
				"Replica sessions promoted to live serving on failover."),
			replBatchesOut: reg.Counter("cogarm_cluster_replication_batches_total",
				"Replication tail batches, by direction.",
				obs.L("direction", "out")),
			replBatchesIn: reg.Counter("cogarm_cluster_replication_batches_total",
				"Replication tail batches, by direction.",
				obs.L("direction", "in")),
			replRecords: reg.Counter("cogarm_cluster_replicated_session_records_total",
				"Dirty session records shipped on replication tails (sender side)."),
			replFails: reg.Counter("cogarm_cluster_replication_failures_total",
				"Replication batches that failed (sender side; the tail reconnects and full-resyncs)."),
			replBackoffSkips: reg.Counter("cogarm_cluster_replication_backoff_skips_total",
				"Replication sweeps that skipped a standby still inside its dial-backoff window."),
			replLag: reg.Gauge("cogarm_cluster_replication_lag_seconds",
				"Seconds since every standby last acknowledged a replication batch (0 = fully replicated this interval)."),
			replicaSessions: reg.Gauge("cogarm_cluster_replica_sessions",
				"Warm-standby session records this node holds for other members."),
			events: obs.DefaultEvents(),
		}
	})
	return clusterTelVal
}
