// Package good is the fixed form of the metricnames fixture: every name a
// package-level constant in the fdeta_* namespace; one constant reused
// across label sets is one metric family, not a collision.
package good

import "repro/internal/obs"

const (
	metricRequests = "fdeta_good_requests_total"
	metricLatency  = "fdeta_good_latency_seconds"
	// The trainer-metric shapes: a labelled counter family shared across
	// outcomes and a suffix-free gauge, mirroring the fdeta_train_*
	// instruments the population trainer registers.
	metricTrainWarm    = "fdeta_good_train_warm_starts_total"
	metricTrainWorkers = "fdeta_good_train_workers"
	// The sharded-ingestion shapes: a counter family labelled per shard, a
	// suffix-free per-shard queue gauge, and a suffix-free batch-size
	// histogram, mirroring the fdeta_ami_shard_* / fdeta_ami_batch_*
	// instruments the sharded head-end registers.
	metricShardStored = "fdeta_good_shard_readings_total"
	metricShardDepth  = "fdeta_good_shard_queue_depth"
	metricBatchSize   = "fdeta_good_batch_readings"
	// The durability shapes: per-shard WAL counters plus a sync-latency
	// histogram, mirroring the fdeta_ami_wal_* instruments the WAL-backed
	// head-end registers.
	metricWALAppended = "fdeta_good_wal_appended_total"
	metricWALRecover  = "fdeta_good_wal_recovered_total"
	metricWALTorn     = "fdeta_good_wal_torn_tail_total"
	metricWALSync     = "fdeta_good_wal_sync_seconds"
	metricWALSegments = "fdeta_good_wal_segment_bytes"
	// The streaming-service shapes: counter families labelled by result and
	// tier, plus suffix-conformant fleet-aggregate ratio gauges, mirroring
	// the fdeta_serve_* instruments the detection service registers.
	metricServeObserved = "fdeta_good_serve_observed_total"
	metricServeAlerts   = "fdeta_good_serve_alerts_total"
	metricServeCovMin   = "fdeta_good_serve_coverage_min_ratio"
	metricServeFillMean = "fdeta_good_serve_window_fill_mean_ratio"
)

// Register registers a labelled counter family and a histogram.
func Register(reg *obs.Registry) {
	reg.Counter(metricRequests, "requests served", obs.L("result", "ok"))
	reg.Counter(metricRequests, "requests served", obs.L("result", "error"))
	reg.Histogram(metricLatency, "request latency", obs.FineLatencyBuckets())
}

// RegisterTrainer registers the trainer-shaped instruments.
func RegisterTrainer(reg *obs.Registry) {
	reg.Counter(metricTrainWarm, "warm-start attempts", obs.L("outcome", "hit"))
	reg.Counter(metricTrainWarm, "warm-start attempts", obs.L("outcome", "miss"))
	reg.Gauge(metricTrainWorkers, "trainer worker-pool size")
}

// RegisterShards registers the sharded-ingestion-shaped instruments: one
// counter/gauge pair per shard index plus the batch-size distribution.
func RegisterShards(reg *obs.Registry, shards []string) {
	for _, s := range shards {
		reg.Counter(metricShardStored, "readings stored per shard", obs.L("shard", s))
		reg.Gauge(metricShardDepth, "ingest queue depth per shard", obs.L("shard", s))
	}
	reg.Histogram(metricBatchSize, "readings per batch frame", []float64{1, 2, 4, 8})
}

// RegisterWAL registers the WAL-shaped instruments: per-shard durability
// counters, the fsync latency distribution, and a suffix-conformant bytes
// gauge.
func RegisterWAL(reg *obs.Registry, shards []string) {
	for _, s := range shards {
		reg.Counter(metricWALAppended, "records appended per shard", obs.L("shard", s))
		reg.Counter(metricWALRecover, "readings recovered per shard", obs.L("shard", s))
		reg.Counter(metricWALTorn, "torn tails truncated per shard", obs.L("shard", s))
		reg.Gauge(metricWALSegments, "live segment bytes per shard", obs.L("shard", s))
	}
	reg.Histogram(metricWALSync, "fsync latency", obs.FineLatencyBuckets())
}

// RegisterServe registers the streaming-service-shaped instruments:
// result- and tier-labelled counter families plus aggregate ratio gauges.
func RegisterServe(reg *obs.Registry) {
	reg.Counter(metricServeObserved, "readings processed", obs.L("result", "ok"))
	reg.Counter(metricServeObserved, "readings processed", obs.L("result", "missing"))
	reg.Counter(metricServeAlerts, "alert events", obs.L("tier", "high"))
	reg.Counter(metricServeAlerts, "alert events", obs.L("tier", "cleared"))
	reg.Gauge(metricServeCovMin, "minimum window coverage across consumers")
	reg.Gauge(metricServeFillMean, "mean live-fill fraction across consumers")
}
