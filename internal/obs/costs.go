package obs

import (
	"fmt"

	"msync/internal/stats"
)

// Session-level metric names. Byte counters are named
// "msync_bytes_<direction>_<phase>_total" per (direction, phase) cell of the
// stats.Costs matrix.
const (
	MetricSessions       = "msync_sessions_total"
	MetricSessionErrors  = "msync_session_errors_total"
	MetricSessionsActive = "msync_sessions_active"
	MetricSessionSeconds = "msync_session_duration_ns"
	MetricRetries        = "msync_retries_total"
)

// Stream-multiplexing metric names (hello extension 2). Server side.
const (
	// MetricStreamsActive gauges multiplexed streams currently in flight
	// across all sessions.
	MetricStreamsActive = "msync_streams_active"
	// MetricRoundsBatched counts map-construction rounds that shared a
	// cycle (and therefore a flush/roundtrip) with at least one other
	// stream's round — the work multiplexing saved from paying its own RTT.
	MetricRoundsBatched = "msync_rounds_batched"
)

// Version-store gauge names (see internal/store): updated by the msync layer
// after store opens and snapshots.
const (
	// MetricStoreVersions gauges the number of retained store versions.
	MetricStoreVersions = "msync_store_versions"
	// MetricStoreBytes gauges total store bytes on disk (segments + journal).
	MetricStoreBytes = "msync_store_bytes"
)

// Admission-control and accept-loop metric names (server side unless noted).
// The invariant dashboards lean on: conns_accepted == sessions_admitted +
// sessions_shed once the accept path has quiesced.
const (
	// MetricConnsAccepted counts connections the accept loop handed to the
	// admission layer.
	MetricConnsAccepted = "msync_conns_accepted_total"
	// MetricSessionsAdmitted counts connections that won a session slot.
	MetricSessionsAdmitted = "msync_sessions_admitted_total"
	// MetricSessionsShed counts connections refused with a BUSY answer
	// (queue full, or queued when shutdown began).
	MetricSessionsShed = "msync_sessions_shed_total"
	// MetricSessionsQueued gauges connections waiting for a session slot.
	MetricSessionsQueued = "msync_sessions_queued"
	// MetricAcceptRetries counts transient Accept failures survived via
	// backoff (EMFILE, ECONNABORTED, ...).
	MetricAcceptRetries = "msync_accept_retries_total"
	// MetricClientAborts counts sessions that died to a peer hang-up or
	// reset; MetricSessionFailures counts the server-side remainder.
	MetricClientAborts    = "msync_session_client_aborts_total"
	MetricSessionFailures = "msync_session_server_errors_total"
	// MetricBusyResponses counts BUSY answers observed by a client's
	// SyncTCP retry loop (client side).
	MetricBusyResponses = "msync_busy_responses_total"
)

// costCounters maps the scalar stats.Costs fields onto counter names.
var costCounters = []struct {
	name string
	get  func(*stats.Costs) int64
}{
	{"msync_roundtrips_total", func(c *stats.Costs) int64 { return int64(c.Roundtrips) }},
	{"msync_files_synced_total", func(c *stats.Costs) int64 { return int64(c.FilesSynced) }},
	{"msync_files_unchanged_total", func(c *stats.Costs) int64 { return int64(c.FilesUnchanged) }},
	{"msync_files_full_total", func(c *stats.Costs) int64 { return int64(c.FilesFull) }},
	{"msync_files_journal_total", func(c *stats.Costs) int64 { return int64(c.FilesJournal) }},
	{"msync_store_journal_hits_total", func(c *stats.Costs) int64 { return c.JournalHits }},
	{"msync_store_journal_misses_total", func(c *stats.Costs) int64 { return c.JournalMisses }},
	{"msync_sum_groups_failed_total", func(c *stats.Costs) int64 { return int64(c.SumGroupsFailed) }},
	{"msync_table_peels_failed_total", func(c *stats.Costs) int64 { return int64(c.TablePeelsFailed) }},
	{"msync_hashes_sent_total", func(c *stats.Costs) int64 { return c.HashesSent }},
	{"msync_candidates_found_total", func(c *stats.Costs) int64 { return c.CandidatesFound }},
	{"msync_matches_confirmed_total", func(c *stats.Costs) int64 { return c.MatchesConfirmed }},
	{"msync_false_candidates_total", func(c *stats.Costs) int64 { return c.FalseCandidates }},
	{"msync_continuation_hashes_total", func(c *stats.Costs) int64 { return c.ContinuationHashes }},
	{"msync_block_hashes_computed_total", func(c *stats.Costs) int64 { return c.BlockHashesComputed }},
	{"msync_bytes_hashed_total", func(c *stats.Costs) int64 { return c.BytesHashed }},
	{"msync_cache_hits_total", func(c *stats.Costs) int64 { return c.CacheHits }},
	{"msync_cache_misses_total", func(c *stats.Costs) int64 { return c.CacheMisses }},
	{"msync_cache_evictions_total", func(c *stats.Costs) int64 { return c.CacheEvictions }},
}

// byteCounterName returns the counter name for one cell of the byte matrix.
func byteCounterName(d stats.Direction, p stats.Phase) string {
	return fmt.Sprintf("msync_bytes_%s_%s_total", d, p)
}

// directions and phases enumerate the cost matrix for RecordCosts.
var (
	directions = []stats.Direction{stats.C2S, stats.S2C}
	phases     = []stats.Phase{stats.PhaseControl, stats.PhaseMap, stats.PhaseDelta, stats.PhaseFull}
)

// RecordCosts folds one finished session's cost accounting into the
// registry's instrumented counters. Sessions keep their private stats.Costs
// (single-goroutine, allocation-free) during the run; this is the bridge
// that turns them into live metrics afterwards. Safe on a nil registry.
func RecordCosts(r *Registry, c *stats.Costs) {
	if r == nil || c == nil {
		return
	}
	for _, d := range directions {
		for _, p := range phases {
			r.Counter(byteCounterName(d, p)).Add(c.Bytes(d, p))
		}
	}
	for _, cc := range costCounters {
		r.Counter(cc.name).Add(cc.get(c))
	}
}
