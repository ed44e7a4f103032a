package ami

import (
	"repro/internal/obs"
)

// The head-end's instrument names. Package-level constants (lint-enforced:
// fdetalint's metricnames check) so the fdeta_ami_* namespace is auditable
// in one place and collisions across packages are caught statically.
const (
	metricConnsActive   = "fdeta_ami_connections_active"
	metricConnsTotal    = "fdeta_ami_connections_total"
	metricConnsRejected = "fdeta_ami_connections_rejected_total"
	metricConnsDrained  = "fdeta_ami_connections_drained_total"
	metricReadingsOK    = "fdeta_ami_readings_accepted_total"
	metricReadingsRej   = "fdeta_ami_readings_rejected_total"
	metricIdleTimeouts  = "fdeta_ami_idle_timeouts_total"
	metricForcedCloses  = "fdeta_ami_forced_closes_total"
	metricCodecErrors   = "fdeta_ami_codec_errors_total"
	metricIngestLatency = "fdeta_ami_ingest_latency_seconds"

	// The batched/sharded ingestion tier's instruments. Batch counters are
	// registered on every head-end; the shard instruments are registered
	// per shard, with a shard label.
	metricBatchFrames = "fdeta_ami_batch_frames_total"
	metricBatchSize   = "fdeta_ami_batch_readings"
	metricShardStored = "fdeta_ami_shard_readings_total"

	// The durability layer's instruments, registered per shard (with a
	// shard label) by ShardedHeadEnd when a WAL directory is configured.
	metricWALAppended  = "fdeta_ami_wal_appended_total"
	metricWALSync      = "fdeta_ami_wal_sync_seconds"
	metricWALRecovered = "fdeta_ami_wal_recovered_total"
	metricWALTornTail  = "fdeta_ami_wal_torn_tail_total"
	metricWALErrors    = "fdeta_ami_wal_errors_total"
)

// batchSizeBuckets are the upper bounds for the readings-per-batch-frame
// histogram: powers of two up to the default batch cap.
func batchSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// headEndMetrics holds the registry-backed instruments for one head-end.
// Every counter the old mutex-and-bump HeadEndStats tracked lives here as an
// atomic instrument; Stats() re-assembles the legacy snapshot from these, so
// the /metrics endpoint and the Stats() view can never disagree.
type headEndMetrics struct {
	reg *obs.Registry

	activeConns   *obs.Gauge   // fdeta_ami_connections_active
	connsTotal    *obs.Counter // fdeta_ami_connections_total
	limitRejected *obs.Counter // fdeta_ami_connections_rejected_total{reason="limit"}
	connsDrained  *obs.Counter // fdeta_ami_connections_drained_total
	accepted      *obs.Counter // fdeta_ami_readings_accepted_total
	rejected      *obs.Counter // fdeta_ami_readings_rejected_total{reason="protocol"}
	authFailed    *obs.Counter // fdeta_ami_readings_rejected_total{reason="auth"}
	idleTimeouts  *obs.Counter // fdeta_ami_idle_timeouts_total
	forcedCloses  *obs.Counter // fdeta_ami_forced_closes_total
	codecErrors   *obs.Counter // fdeta_ami_codec_errors_total
	ingestLatency *obs.Histogram
	batchFrames   *obs.Counter   // fdeta_ami_batch_frames_total
	batchSize     *obs.Histogram // fdeta_ami_batch_readings
}

// newHeadEndMetrics registers the head-end instrument set on reg. Each
// head-end defaults to a private registry so two instances in one process
// (common in tests) never share counters; WithMetrics opts into a shared
// registry for export.
func newHeadEndMetrics(reg *obs.Registry) *headEndMetrics {
	return &headEndMetrics{
		reg: reg,
		activeConns: reg.Gauge(metricConnsActive,
			"meter sessions currently being served"),
		connsTotal: reg.Counter(metricConnsTotal,
			"meter sessions accepted since start"),
		limitRejected: reg.Counter(metricConnsRejected,
			"connections turned away at accept time", obs.L("reason", "limit")),
		connsDrained: reg.Counter(metricConnsDrained,
			"sessions bowed out gracefully during shutdown drain"),
		accepted: reg.Counter(metricReadingsOK,
			"readings stored and acknowledged"),
		rejected: reg.Counter(metricReadingsRej,
			"readings refused before storage", obs.L("reason", "protocol")),
		authFailed: reg.Counter(metricReadingsRej,
			"readings refused before storage", obs.L("reason", "auth")),
		idleTimeouts: reg.Counter(metricIdleTimeouts,
			"sessions closed for idling past the read deadline"),
		forcedCloses: reg.Counter(metricForcedCloses,
			"connections force-closed at the drain deadline"),
		codecErrors: reg.Counter(metricCodecErrors,
			"malformed or oversized frames on the wire"),
		ingestLatency: reg.Histogram(metricIngestLatency,
			"frame receipt through storage, per accepted message", obs.FineLatencyBuckets()),
		batchFrames: reg.Counter(metricBatchFrames,
			"v3 batch frames accepted and acknowledged"),
		batchSize: reg.Histogram(metricBatchSize,
			"readings per accepted batch frame", batchSizeBuckets()),
	}
}
