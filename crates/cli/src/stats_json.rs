//! The one renderer of [`PipelineStats`] for `--stats-json`, shared by
//! `stream` (as its `pipeline` object) and `serve` (inside each stream's
//! object), so both report every counter under the same keys.

use interval_core::json::Object;
use stream::PipelineStats;

/// Appends every pipeline counter to `o` as JSON members.
pub(crate) fn pipeline_fields(o: Object, ps: &PipelineStats) -> Object {
    // No `..`: a new pipeline counter fails to compile until it is rendered.
    let PipelineStats {
        submitted_refreshes,
        completed_refreshes,
        coalesced_refreshes,
        events_during_refresh,
        refresh_lag,
        subscribers,
        subscriber_delivered,
        subscriber_dropped,
        subscriber_max_lag,
        wal_flushes,
        wal_degraded,
        segments_sealed,
        segment_records,
        segment_bytes,
        segment_seal_failures,
    } = *ps;
    o.member("submitted", submitted_refreshes)
        .member("completed", completed_refreshes)
        .member("coalesced", coalesced_refreshes)
        .member("events_during_refresh", events_during_refresh)
        .member("refresh_lag", refresh_lag)
        .member("subscribers", subscribers)
        .member("subscriber_delivered", subscriber_delivered)
        .member("subscriber_dropped", subscriber_dropped)
        .member("subscriber_max_lag", subscriber_max_lag)
        .member("wal_flushes", wal_flushes)
        .member("wal_degraded", wal_degraded)
        .member("segments_sealed", segments_sealed)
        .member("segment_records", segment_records)
        .member("segment_bytes", segment_bytes)
        .member("segment_seal_failures", segment_seal_failures)
}
