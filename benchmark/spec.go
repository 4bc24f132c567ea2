package main

// metricDecl declares one metric of the benchmark. The tables below are the
// single source of the names, units and bounds: BENCHMARK.json is printed
// from them (-print-spec) and the smoke test fails when the two disagree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 10

// endToEnd are the metrics a user of msync sees, per workload. Bound is the
// share of the parent's median by which a later change may worsen the metric;
// it is also the most the metric may scatter between ten runs on ten seeds,
// and on the shared two-core reference host wall and CPU time scatter by a
// tenth and drift by a quarter within minutes (README, "Bounds"). Two
// metrics the issue lists are not here: failed_share, because a metric here
// may never be 0 — it is the result line's failed ÷ attempted, and any
// failure fails the command — and peak_rss_mb, which is per-layer.
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"session_s_p50", "s", lower, 0.25},
	{"dsl_sync_s", "s", lower, 0.10},
	{"cpu_s_per_session", "s", lower, 0.25},
	{"wire_bytes_per_session", "B", lower, 0.10},
	{"roundtrips_per_session", "count", lower, 0.20},
	{"allocs_per_session", "count", lower, 0.20},
	{"alloc_mb_per_session", "MB", lower, 0.15},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// layer the workload does not exercise reports 0.
var perLayer = []metricDecl{
	{"dirio.open_tree_files_per_s", "1/s", higher, 0},
	{"dirio.load_mb_per_s", "MB/s", higher, 0},
	{"dirio.hash_file_mb_per_s", "MB/s", higher, 0},
	{"dirio.apply_mb_per_s", "MB/s", higher, 0},

	{"md4.sum_mb_per_s", "MB/s", higher, 0},

	{"rolling.poly_roll_mb_per_s", "MB/s", higher, 0},
	{"rolling.adler_roll_mb_per_s", "MB/s", higher, 0},
	{"rolling.block_hash_mb_per_s", "MB/s", higher, 0},

	{"core.file_s", "s", lower, 0},
	{"core.new_engines_s", "s", lower, 0},
	{"core.emit_hashes_s", "s", lower, 0},
	{"core.absorb_hashes_s", "s", lower, 0},
	{"core.verify_s", "s", lower, 0},
	{"core.emit_delta_s", "s", lower, 0},
	{"core.apply_delta_s", "s", lower, 0},
	{"core.precompute_signature_s", "s", lower, 0},
	{"core.allocs_per_file", "count", lower, 0},
	{"core.rounds_per_file", "count", lower, 0},
	{"core.hashes_sent", "count", lower, 0},
	{"core.candidates_found", "count", lower, 0},
	{"core.matches_confirmed", "count", higher, 0},
	{"core.harvest_rate", "ratio", higher, 0},
	{"core.map_bytes", "B", lower, 0},
	{"core.delta_bytes", "B", lower, 0},
	{"core.scan_parallel_speedup", "ratio", higher, 0},
	{"pool.effective_workers", "count", higher, 0},

	{"cdc.cuts_mb_per_s", "MB/s", higher, 0},
	{"cdc.chunks_per_mb", "count", lower, 0},

	{"delta.encode_mb_per_s", "MB/s", higher, 0},
	{"delta.decode_mb_per_s", "MB/s", higher, 0},
	{"delta.compress_mb_per_s", "MB/s", higher, 0},
	{"delta.out_bytes_per_kb", "B", lower, 0},

	{"huffman.encode_msym_per_s", "Msym/s", higher, 0},
	{"huffman.decode_msym_per_s", "Msym/s", higher, 0},

	{"wire.write_ns_per_frame", "ns", lower, 0},
	{"wire.read_ns_per_frame", "ns", lower, 0},
	{"wire.stream_wrap_ns_per_frame", "ns", lower, 0},
	{"wire.allocs_per_frame", "count", lower, 0},

	{"merkle.build_s", "s", lower, 0},
	{"merkle.update_s", "s", lower, 0},
	{"merkle.cache_load_s", "s", lower, 0},
	{"merkle.reconcile_s", "s", lower, 0},
	{"merkle.reconcile_bytes", "B", lower, 0},
	{"merkle.reconcile_rounds", "count", lower, 0},

	{"collection.manifest_s", "s", lower, 0},
	{"collection.control_bytes", "B", lower, 0},
	{"collection.map_bytes", "B", lower, 0},
	{"collection.delta_bytes", "B", lower, 0},
	{"collection.full_bytes", "B", lower, 0},
	{"collection.costs_gap_bytes", "B", lower, 0},
	{"collection.frames_per_session", "count", lower, 0},
	{"collection.files_synced", "count", higher, 0},
	{"collection.files_full", "count", lower, 0},
	{"collection.files_unchanged", "count", higher, 0},
	{"collection.files_renamed", "count", higher, 0},
	{"collection.files_journal", "count", higher, 0},
	{"collection.files_cdc", "count", higher, 0},
	{"collection.tree_rounds", "count", lower, 0},
	{"collection.journal_hits", "count", higher, 0},
	{"collection.journal_misses", "count", lower, 0},
	{"collection.bytes_hashed", "B", lower, 0},
	{"collection.block_hashes_computed", "count", lower, 0},
	{"collection.phase_handshake_s", "s", lower, 0},
	{"collection.phase_tree_s", "s", lower, 0},
	{"collection.phase_round_s", "s", lower, 0},
	{"collection.phase_verify_s", "s", lower, 0},
	{"collection.phase_delta_s", "s", lower, 0},
	{"collection.phase_full_s", "s", lower, 0},
	{"collection.server_session_s", "s", lower, 0},
	{"collection.client_session_s", "s", lower, 0},
	{"collection.mb_per_s", "MB/s", higher, 0},
	{"collection.session_s_hi", "s", lower, 0},
	{"collection.session_hi_pct", "%", higher, 0},
	{"collection.sessions", "count", higher, 0},
	{"collection.failed_share", "ratio", lower, 0},
	{"collection.peak_rss_mb", "MB", lower, 0},

	{"transport.client_read_wait_s", "s", lower, 0},
	{"transport.server_read_wait_s", "s", lower, 0},
	{"transport.pipe_mb_per_s", "MB/s", higher, 0},

	{"sigcache.get_mem_ns", "ns", lower, 0},
	{"sigcache.get_disk_ns", "ns", lower, 0},
	{"sigcache.put_ns", "ns", lower, 0},
	{"sigcache.allocs_per_put", "count", lower, 0},
	{"sigcache.hit_ratio", "ratio", higher, 0},
	{"sigcache.evictions", "count", lower, 0},
	{"sigcache.cold_fill_s", "s", lower, 0},

	{"store.open_s", "s", lower, 0},
	{"store.snapshot_s", "s", lower, 0},
	{"store.delta_s", "s", lower, 0},
	{"store.content_mb_per_s", "MB/s", higher, 0},
	{"store.disk_bytes_per_user_byte", "ratio", lower, 0},
	{"store.snapshot_gc_s", "s", lower, 0},
	{"store.gc_size_ratio", "ratio", lower, 0},
	{"store.versions_retained", "count", higher, 0},

	{"pubsig.publish_s", "s", lower, 0},
	{"pubsig.reader_sync_s", "s", lower, 0},
	{"pubsig.reader_requests", "count", lower, 0},
	{"pubsig.reader_bytes", "B", lower, 0},

	{"obs.trace_overhead_pct", "%", lower, 0},
}
