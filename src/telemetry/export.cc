#include "src/telemetry/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/prof/profiler.h"
#include "src/util/atomic_file.h"

namespace manet::telemetry {

namespace {

void kv(std::string& out, const char* key, double v, bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", first ? "" : ",", key, v);
  out += buf;
}

void kv(std::string& out, const char* key, std::uint64_t v,
        bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                v);
  out += buf;
}

void kvStats(std::string& out, const char* key, const util::RunningStats& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ",\"%s\":{\"mean\":%.9g,\"stddev\":%.9g,\"min\":%.9g,"
                "\"max\":%.9g,\"n\":%zu}",
                key, s.mean(), s.stddev(), s.min(), s.max(), s.count());
  out += buf;
}

}  // namespace

std::string metricsJson(const metrics::Metrics& m, sim::Time duration) {
  std::string out = "{";
  kv(out, "data_originated", m.dataOriginated, /*first=*/true);
  kv(out, "data_delivered", m.dataDelivered);
  kv(out, "bytes_delivered", m.bytesDelivered);
  kv(out, "delay_sum_s", m.delaySumSec);
  kv(out, "drop_send_buffer_timeout", m.dropSendBufferTimeout);
  kv(out, "drop_send_buffer_overflow", m.dropSendBufferOverflow);
  kv(out, "drop_ifq_full", m.dropIfqFull);
  kv(out, "drop_link_fail_no_salvage", m.dropLinkFailNoSalvage);
  kv(out, "drop_negative_cache", m.dropNegativeCache);
  kv(out, "drop_ttl_expired", m.dropTtlExpired);
  kv(out, "drop_mac_duplicate", m.dropMacDuplicate);
  kv(out, "total_dropped", m.totalDropped());
  kv(out, "rreq_tx", m.rreqTx);
  kv(out, "rrep_tx", m.rrepTx);
  kv(out, "rerr_tx", m.rerrTx);
  kv(out, "rts_tx", m.rtsTx);
  kv(out, "cts_tx", m.ctsTx);
  kv(out, "ack_tx", m.ackTx);
  kv(out, "data_frame_tx", m.dataFrameTx);
  kv(out, "cts_timeouts", m.ctsTimeouts);
  kv(out, "ack_timeouts", m.ackTimeouts);
  kv(out, "rts_ignored_busy", m.rtsIgnoredBusy);
  kv(out, "cache_hits", m.cacheHits);
  kv(out, "invalid_cache_hits", m.invalidCacheHits);
  // Provenance attribution: invalid hits by how the serving entry was
  // learned. Zero origins are elided; index order keeps output stable.
  {
    out += ",\"invalid_cache_hits_by_origin\":{";
    bool firstOrigin = true;
    for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
      if (m.invalidCacheHitsByOrigin[i] == 0) continue;
      kv(out, net::toString(static_cast<net::RouteOrigin>(i)),
         m.invalidCacheHitsByOrigin[i], firstOrigin);
      firstOrigin = false;
    }
    out += '}';
  }
  kv(out, "replies_received", m.repliesReceived);
  kv(out, "good_replies_received", m.goodRepliesReceived);
  kv(out, "cache_replies_generated", m.cacheRepliesGenerated);
  kv(out, "target_replies_generated", m.targetRepliesGenerated);
  kv(out, "gratuitous_replies_generated", m.gratuitousRepliesGenerated);
  kv(out, "stale_replies_ignored", m.staleRepliesIgnored);
  kv(out, "route_discoveries_started", m.routeDiscoveriesStarted);
  kv(out, "non_prop_requests_sent", m.nonPropRequestsSent);
  kv(out, "flood_requests_sent", m.floodRequestsSent);
  kv(out, "link_breaks_detected", m.linkBreaksDetected);
  kv(out, "fake_link_breaks", m.fakeLinkBreaks);
  kv(out, "salvage_attempts", m.salvageAttempts);
  kv(out, "expired_links", m.expiredLinks);
  kv(out, "rerr_wide_rebroadcasts", m.rerrWideRebroadcasts);
  kv(out, "neg_cache_insertions", m.negCacheInsertions);
  // Derived (the paper's plotted metrics).
  kv(out, "packet_delivery_fraction", m.packetDeliveryFraction());
  kv(out, "avg_delay_s", m.avgDelaySec());
  kv(out, "normalized_overhead", m.normalizedOverhead());
  kv(out, "throughput_kbps", m.throughputKbps(duration));
  kv(out, "good_reply_pct", m.goodReplyPct());
  kv(out, "invalid_cache_hit_pct", m.invalidCacheHitPct());
  out += '}';
  return out;
}

std::string runResultJson(const scenario::RunResult& r) {
  std::string out = "{";
  kv(out, "duration_s", r.duration.toSeconds(), /*first=*/true);
  kv(out, "events_executed", r.eventsExecuted);
  // Scheduler pressure counters are tracked unconditionally, so they are
  // exported even when full profiling is off.
  kv(out, "sched_queue_peak", r.schedQueuePeak);
  kv(out, "sched_total_dispatched", r.eventsExecuted);
  kv(out, "samples", static_cast<std::uint64_t>(r.series.size()));
  out += ",\"metrics\":";
  out += metricsJson(r.metrics, r.duration);
  out += '}';
  return out;
}

std::string aggregateJson(const scenario::AggregateResult& agg,
                          const scenario::ScenarioConfig& cfg,
                          std::string_view label) {
  std::string out = "{\"label\":\"";
  out += label;
  out += "\",\"config\":{";
  kv(out, "num_nodes", static_cast<std::uint64_t>(cfg.numNodes),
     /*first=*/true);
  kv(out, "field_x_m", cfg.field.x);
  kv(out, "field_y_m", cfg.field.y);
  kv(out, "max_speed_mps", cfg.maxSpeed);
  kv(out, "pause_s", cfg.pause.toSeconds());
  kv(out, "num_flows", static_cast<std::uint64_t>(cfg.numFlows));
  kv(out, "packets_per_second", cfg.packetsPerSecond);
  kv(out, "payload_bytes", static_cast<std::uint64_t>(cfg.payloadBytes));
  kv(out, "duration_s", cfg.duration.toSeconds());
  kv(out, "mobility_seed", cfg.mobilitySeed);
  kv(out, "traffic_seed", cfg.trafficSeed);
  out += ",\"protocol\":\"";
  out += cfg.protocol == net::Protocol::kDsr ? "dsr" : "aodv";
  out += "\"}";
  out += ",\"aggregate\":{\"replications\":";
  out += std::to_string(agg.runs.size());
  kvStats(out, "delivery_fraction", agg.deliveryFraction);
  kvStats(out, "avg_delay_s", agg.avgDelaySec);
  kvStats(out, "normalized_overhead", agg.normalizedOverhead);
  kvStats(out, "throughput_kbps", agg.throughputKbps);
  kvStats(out, "good_reply_pct", agg.goodReplyPct);
  kvStats(out, "invalid_cache_hit_pct", agg.invalidCacheHitPct);
  kvStats(out, "cache_hits", agg.cacheHits);
  kvStats(out, "link_breaks", agg.linkBreaks);
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    const util::RunningStats& s = agg.invalidHitsByOrigin[i];
    if (s.count() == 0 || s.max() == 0.0) continue;
    const std::string key =
        std::string("invalid_hits_origin_") +
        net::toString(static_cast<net::RouteOrigin>(i));
    kvStats(out, key.c_str(), s);
  }
  out += "},\"runs\":[";
  for (std::size_t i = 0; i < agg.runs.size(); ++i) {
    if (i > 0) out += ',';
    out += runResultJson(agg.runs[i]);
  }
  out += "]}";
  return out;
}

std::string seriesCsv(const SampleSeries& s) {
  std::string out =
      "t_s,mean_cache_size,invalid_entry_frac,mean_sendbuf_occupancy,"
      "originated,delivered,dropped,cache_hits,link_breaks\n";
  char buf[256];
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%.3f,%.3f,%.4f,%.3f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%" PRIu64 ",%" PRIu64 "\n",
                  s.timeSec[i], s.meanCacheSize[i], s.invalidEntryFrac[i],
                  s.meanSendBufOccupancy[i], s.originated[i], s.delivered[i],
                  s.dropped[i], s.cacheHits[i], s.linkBreaks[i]);
    out += buf;
  }
  return out;
}

bool writeFile(const std::string& path, std::string_view content) {
  // Crash safety satellite: every structured artifact lands via
  // write-temp-fsync-rename, so readers only ever see absent-or-complete.
  return util::atomicWriteFile(path, content);
}

int exportAggregate(const scenario::AggregateResult& agg,
                    const scenario::ScenarioConfig& cfg,
                    std::string_view label) {
  if (cfg.telemetry.exportDir.empty()) return 0;
  const std::string base =
      cfg.telemetry.exportDir + "/" + std::string(label);
  int written = 0;
  if (writeFile(base + ".json", aggregateJson(agg, cfg, label))) {
    ++written;
  }
  for (std::size_t i = 0; i < agg.runs.size(); ++i) {
    const scenario::RunResult& r = agg.runs[i];
    const std::string run = base + ".r" + std::to_string(i);
    if (!r.series.empty() &&
        writeFile(run + ".series.csv", seriesCsv(r.series))) {
      ++written;
    }
    // Wall times vary from host to host, so the profile goes beside the
    // deterministic aggregate, never into it.
    if (r.profile.enabled &&
        writeFile(run + ".profile.json", prof::toJson(r.profile))) {
      ++written;
    }
  }
  return written;
}

}  // namespace manet::telemetry
