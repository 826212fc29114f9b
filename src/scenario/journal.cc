#include "src/scenario/journal.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/atomic_file.h"
#include "src/util/json.h"

namespace manet::scenario {

namespace {

// ---------------------------------------------------------------- writing

void kvD(std::string& out, const char* key, double v, bool first = false) {
  char buf[128];
  // %.17g round-trips every IEEE-754 double through strtod exactly; the
  // journal must restore bit-identical values or resumed aggregates drift.
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",", key, v);
  out += buf;
}

void kvU(std::string& out, const char* key, std::uint64_t v,
         bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                v);
  out += buf;
}

void kvI(std::string& out, const char* key, std::int64_t v,
         bool first = false) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%" PRId64, first ? "" : ",", key,
                v);
  out += buf;
}

void kvS(std::string& out, const char* key, std::string_view v,
         bool first = false) {
  out += first ? "\"" : ",\"";
  out += key;
  out += "\":\"";
  util::appendJsonEscaped(out, v);
  out += '"';
}

// Every Metrics field, in one place, applied to both the writer and the
// reader below — a field added to Metrics but not listed here would make a
// resumed campaign silently diverge from an uninterrupted one, which the
// journal round-trip test (tests/scenario/journal_test.cc) guards against.
#define MANET_JOURNAL_METRIC_U64(X)                                         \
  X(dataOriginated, "data_originated")                                      \
  X(dataDelivered, "data_delivered")                                        \
  X(bytesDelivered, "bytes_delivered")                                      \
  X(dropSendBufferTimeout, "drop_send_buffer_timeout")                      \
  X(dropSendBufferOverflow, "drop_send_buffer_overflow")                    \
  X(dropIfqFull, "drop_ifq_full")                                           \
  X(dropLinkFailNoSalvage, "drop_link_fail_no_salvage")                     \
  X(dropNegativeCache, "drop_negative_cache")                               \
  X(dropTtlExpired, "drop_ttl_expired")                                     \
  X(dropMacDuplicate, "drop_mac_duplicate")                                 \
  X(dropNodeDown, "drop_node_down")                                         \
  X(rreqTx, "rreq_tx")                                                      \
  X(rrepTx, "rrep_tx")                                                      \
  X(rerrTx, "rerr_tx")                                                      \
  X(rtsTx, "rts_tx")                                                        \
  X(ctsTx, "cts_tx")                                                        \
  X(ackTx, "ack_tx")                                                        \
  X(dataFrameTx, "data_frame_tx")                                           \
  X(ctsTimeouts, "cts_timeouts")                                            \
  X(ackTimeouts, "ack_timeouts")                                            \
  X(rtsIgnoredBusy, "rts_ignored_busy")                                     \
  X(cacheHits, "cache_hits")                                                \
  X(invalidCacheHits, "invalid_cache_hits")                                 \
  X(repliesReceived, "replies_received")                                    \
  X(goodRepliesReceived, "good_replies_received")                           \
  X(cacheRepliesGenerated, "cache_replies_generated")                       \
  X(targetRepliesGenerated, "target_replies_generated")                     \
  X(gratuitousRepliesGenerated, "gratuitous_replies_generated")             \
  X(staleRepliesIgnored, "stale_replies_ignored")                           \
  X(routeDiscoveriesStarted, "route_discoveries_started")                   \
  X(nonPropRequestsSent, "non_prop_requests_sent")                          \
  X(floodRequestsSent, "flood_requests_sent")                               \
  X(linkBreaksDetected, "link_breaks_detected")                             \
  X(fakeLinkBreaks, "fake_link_breaks")                                     \
  X(salvageAttempts, "salvage_attempts")                                    \
  X(expiredLinks, "expired_links")                                          \
  X(rerrWideRebroadcasts, "rerr_wide_rebroadcasts")                         \
  X(negCacheInsertions, "neg_cache_insertions")                             \
  X(faultNodeCrashes, "fault_node_crashes")                                 \
  X(faultNodeRecoveries, "fault_node_recoveries")                           \
  X(faultLinkBlackouts, "fault_link_blackouts")                             \
  X(faultNoiseBursts, "fault_noise_bursts")                                 \
  X(faultTrafficSurges, "fault_traffic_surges")

template <class T>
void arrD(std::string& out, const char* key, const std::vector<T>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                  static_cast<double>(v[i]));
    out += buf;
  }
  out += ']';
}

void arrU(std::string& out, const char* key,
          const std::vector<std::uint64_t>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i ? "," : "", v[i]);
    out += buf;
  }
  out += ']';
}

// ---------------------------------------------------------------- reading

bool readU64(const util::JsonValue& obj, const char* key, std::uint64_t* out,
             std::string* err) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isNumber()) {
    if (err != nullptr) *err = std::string("missing field '") + key + "'";
    return false;
  }
  *out = static_cast<std::uint64_t>(v->asNumber());
  return true;
}

bool readVecD(const util::JsonValue& obj, const char* key,
              std::vector<double>* out, std::string* err) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isArray()) {
    if (err != nullptr) *err = std::string("missing array '") + key + "'";
    return false;
  }
  out->clear();
  out->reserve(v->asArray().size());
  for (const util::JsonValue& e : v->asArray()) out->push_back(e.asNumber());
  return true;
}

bool readVecU(const util::JsonValue& obj, const char* key,
              std::vector<std::uint64_t>* out, std::string* err) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->isArray()) {
    if (err != nullptr) *err = std::string("missing array '") + key + "'";
    return false;
  }
  out->clear();
  out->reserve(v->asArray().size());
  for (const util::JsonValue& e : v->asArray()) {
    out->push_back(static_cast<std::uint64_t>(e.asNumber()));
  }
  return true;
}

// ------------------------------------------------------------ fingerprint

void fpTime(std::string& out, const char* key, sim::Time t) {
  kvI(out, key, t.ns());
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string codeVersion() {
#ifdef MANET_CODE_VERSION
  return MANET_CODE_VERSION;
#else
  return "unknown";
#endif
}

std::string configFingerprint(const ScenarioConfig& cfg) {
  std::string out = "{";
  kvU(out, "num_nodes", static_cast<std::uint64_t>(cfg.numNodes),
      /*first=*/true);
  kvD(out, "field_x", cfg.field.x);
  kvD(out, "field_y", cfg.field.y);
  kvD(out, "min_speed", cfg.minSpeed);
  kvD(out, "max_speed", cfg.maxSpeed);
  fpTime(out, "pause_ns", cfg.pause);
  kvU(out, "num_flows", static_cast<std::uint64_t>(cfg.numFlows));
  kvD(out, "pps", cfg.packetsPerSecond);
  kvU(out, "payload", cfg.payloadBytes);
  fpTime(out, "duration_ns", cfg.duration);
  fpTime(out, "flow_start_ns", cfg.flowStartWindow);
  kvU(out, "traffic_seed", cfg.trafficSeed);
  kvU(out, "protocol", static_cast<std::uint64_t>(cfg.protocol));
  kvU(out, "invariant_checks", cfg.invariantChecks ? 1 : 0);
  // DSR knobs (the sweep axes mutate these; two cells with equal labels
  // from *different* plans must still hash apart).
  const core::DsrConfig& d = cfg.dsr;
  kvU(out, "d_reply_cache", d.replyFromCache ? 1 : 0);
  kvU(out, "d_salvage", d.salvaging ? 1 : 0);
  kvU(out, "d_max_salvage", static_cast<std::uint64_t>(d.maxSalvageCount));
  kvU(out, "d_grat_repair", d.gratuitousRepair ? 1 : 0);
  kvU(out, "d_promisc", d.promiscuousListening ? 1 : 0);
  kvU(out, "d_grat_replies", d.gratuitousReplies ? 1 : 0);
  kvU(out, "d_nonprop", d.nonPropagatingRequests ? 1 : 0);
  kvU(out, "d_wider_err", d.widerErrorNotification ? 1 : 0);
  kvU(out, "d_expiry", static_cast<std::uint64_t>(d.expiry));
  fpTime(out, "d_static_to_ns", d.staticTimeout);
  kvD(out, "d_alpha", d.adaptiveAlpha);
  fpTime(out, "d_adaptive_min_ns", d.adaptiveMinTimeout);
  fpTime(out, "d_expiry_check_ns", d.expiryCheckPeriod);
  kvU(out, "d_expiry_orig", d.expiryCountsOrigination ? 1 : 0);
  kvU(out, "d_negcache", d.negativeCache ? 1 : 0);
  kvU(out, "d_negcache_cap", d.negCacheCapacity);
  fpTime(out, "d_negcache_ttl_ns", d.negCacheTtl);
  kvU(out, "d_cache_cap", d.routeCacheCapacity);
  kvU(out, "d_cache_structure", static_cast<std::uint64_t>(d.cacheStructure));
  kvU(out, "d_freshness", d.freshnessTagging ? 1 : 0);
  kvU(out, "d_sendbuf_cap", d.sendBufferCapacity);
  fpTime(out, "d_sendbuf_to_ns", d.sendBufferTimeout);
  fpTime(out, "d_nonprop_to_ns", d.nonPropRequestTimeout);
  fpTime(out, "d_backoff0_ns", d.requestBackoffInitial);
  fpTime(out, "d_backoff_max_ns", d.requestBackoffMax);
  kvU(out, "d_max_ttl", d.maxRequestTtl);
  fpTime(out, "d_bcast_jitter_ns", d.broadcastJitterMax);
  // AODV knobs.
  const aodv::AodvConfig& a = cfg.aodv;
  fpTime(out, "a_active_to_ns", a.activeRouteTimeout);
  fpTime(out, "a_disc_to_ns", a.discoveryTimeout);
  fpTime(out, "a_disc_backoff_ns", a.discoveryBackoffMax);
  kvU(out, "a_max_ttl", a.maxRequestTtl);
  fpTime(out, "a_bcast_jitter_ns", a.broadcastJitterMax);
  kvU(out, "a_intermediate", a.intermediateReplies ? 1 : 0);
  kvU(out, "a_sendbuf_cap", a.sendBufferCapacity);
  fpTime(out, "a_sendbuf_to_ns", a.sendBufferTimeout);
  fpTime(out, "a_sweep_ns", a.expirySweepPeriod);
  // MAC / PHY knobs.
  const mac::MacConfig& m = cfg.mac;
  fpTime(out, "m_slot_ns", m.slot);
  fpTime(out, "m_sifs_ns", m.sifs);
  fpTime(out, "m_difs_ns", m.difs);
  kvU(out, "m_cwmin", m.cwMin);
  kvU(out, "m_cwmax", m.cwMax);
  kvU(out, "m_srl", static_cast<std::uint64_t>(m.shortRetryLimit));
  kvU(out, "m_lrl", static_cast<std::uint64_t>(m.longRetryLimit));
  kvU(out, "m_rts_thresh", m.rtsThresholdBytes);
  kvU(out, "m_queue_cap", m.queueCapacity);
  fpTime(out, "m_slack_ns", m.timeoutSlack);
  const phy::PhyConfig& p = cfg.phy;
  kvD(out, "p_range", p.rangeMeters);
  kvD(out, "p_bitrate", p.bitRateBps);
  fpTime(out, "p_overhead_ns", p.phyOverhead);
  fpTime(out, "p_prop_ns", p.propagationDelay);
  kvU(out, "p_capture", p.captureEffect ? 1 : 0);
  kvD(out, "p_capture_thresh", p.captureThreshold);
  kvD(out, "p_path_loss", p.pathLossExponent);
  // Fault plan: scalar generator specs plus a digest of scripted events.
  const fault::FaultPlan& f = cfg.fault;
  kvU(out, "f_seed", f.seed);
  kvD(out, "f_churn_frac", f.churn.fraction);
  kvD(out, "f_churn_up", f.churn.meanUpTimeSec);
  kvD(out, "f_churn_down", f.churn.meanDownTimeSec);
  kvU(out, "f_churn_wipe", f.churn.wipeCachesOnRecovery ? 1 : 0);
  kvD(out, "f_bo_gap", f.blackout.meanGapSec);
  kvD(out, "f_bo_dur", f.blackout.meanDurationSec);
  kvU(out, "f_bo_unidir", f.blackout.unidirectional ? 1 : 0);
  kvU(out, "f_bo_inrange", f.blackout.inRangeOnly ? 1 : 0);
  kvD(out, "f_noise_gap", f.noise.meanGapSec);
  kvD(out, "f_noise_dur", f.noise.meanDurationSec);
  kvD(out, "f_noise_prob", f.noise.corruptProb);
  kvD(out, "f_surge_gap", f.surge.meanGapSec);
  kvD(out, "f_surge_dur", f.surge.meanDurationSec);
  kvD(out, "f_surge_mult", f.surge.rateMultiplier);
  std::string scripted;
  for (const fault::FaultEvent& e : f.scripted) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%u@%" PRId64 ":%u>%u:%" PRId64 ":%.17g:%d;",
                  static_cast<unsigned>(e.kind), e.at.ns(), e.node, e.peer,
                  e.duration.ns(), e.value, e.bothDirections ? 1 : 0);
    scripted += buf;
  }
  char sbuf[32];
  std::snprintf(sbuf, sizeof(sbuf), "%016" PRIx64, fnv1a64(scripted));
  kvS(out, "f_scripted", sbuf);
  out += '}';
  return out;
}

std::string cellKey(const ScenarioConfig& cfg) {
  std::string material = configFingerprint(cfg);
  material += "|seed=";
  material += std::to_string(cfg.mobilitySeed);
  material += "|code=";
  material += codeVersion();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a64(material));
  return buf;
}

std::string runResultToJournalJson(const RunResult& r) {
  std::string out = "{";
  kvI(out, "duration_ns", r.duration.ns(), /*first=*/true);
  kvU(out, "events_executed", r.eventsExecuted);
  kvU(out, "sched_queue_peak", r.schedQueuePeak);
  kvD(out, "wall_seconds", r.wallSeconds);  // reporting only, never merged
  out += ",\"metrics\":{";
  const metrics::Metrics& m = r.metrics;
  kvD(out, "delay_sum_s", m.delaySumSec, /*first=*/true);
#define MANET_X(field, name) kvU(out, name, m.field);
  MANET_JOURNAL_METRIC_U64(MANET_X)
#undef MANET_X
  out += ",\"invalid_hits_by_origin\":[";
  for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i ? "," : "",
                  m.invalidCacheHitsByOrigin[i]);
    out += buf;
  }
  out += "]}";
  out += ",\"series\":{";
  kvI(out, "period_ns", r.series.period.ns(), /*first=*/true);
  arrD(out, "t_s", r.series.timeSec);
  arrD(out, "mean_cache_size", r.series.meanCacheSize);
  arrD(out, "invalid_entry_frac", r.series.invalidEntryFrac);
  arrD(out, "mean_sendbuf", r.series.meanSendBufOccupancy);
  arrU(out, "originated", r.series.originated);
  arrU(out, "delivered", r.series.delivered);
  arrU(out, "dropped", r.series.dropped);
  arrU(out, "cache_hits", r.series.cacheHits);
  arrU(out, "link_breaks", r.series.linkBreaks);
  out += "}}";
  return out;
}

std::optional<RunResult> runResultFromJournalJson(const std::string& json,
                                                  std::string* err) {
  const std::optional<util::JsonValue> doc = util::parseJson(json, err);
  if (!doc || !doc->isObject()) {
    if (err != nullptr && err->empty()) *err = "payload is not an object";
    return std::nullopt;
  }
  RunResult r;
  const util::JsonValue* dur = doc->find("duration_ns");
  const util::JsonValue* met = doc->find("metrics");
  const util::JsonValue* ser = doc->find("series");
  if (dur == nullptr || !dur->isNumber() || met == nullptr ||
      !met->isObject() || ser == nullptr || !ser->isObject()) {
    if (err != nullptr) *err = "payload missing duration/metrics/series";
    return std::nullopt;
  }
  r.duration = sim::Time::nanos(static_cast<std::int64_t>(dur->asNumber()));
  if (!readU64(*doc, "events_executed", &r.eventsExecuted, err)) {
    return std::nullopt;
  }
  if (!readU64(*doc, "sched_queue_peak", &r.schedQueuePeak, err)) {
    return std::nullopt;
  }
  r.wallSeconds = doc->numberAt("wall_seconds");
  metrics::Metrics& m = r.metrics;
  m.delaySumSec = met->numberAt("delay_sum_s");
#define MANET_X(field, name) \
  if (!readU64(*met, name, &m.field, err)) return std::nullopt;
  MANET_JOURNAL_METRIC_U64(MANET_X)
#undef MANET_X
  {
    const util::JsonValue* origins = met->find("invalid_hits_by_origin");
    if (origins == nullptr || !origins->isArray() ||
        origins->asArray().size() != net::kNumRouteOrigins) {
      if (err != nullptr) *err = "bad invalid_hits_by_origin array";
      return std::nullopt;
    }
    for (std::size_t i = 0; i < net::kNumRouteOrigins; ++i) {
      m.invalidCacheHitsByOrigin[i] =
          static_cast<std::uint64_t>(origins->asArray()[i].asNumber());
    }
  }
  telemetry::SampleSeries& s = r.series;
  s.period =
      sim::Time::nanos(static_cast<std::int64_t>(ser->numberAt("period_ns")));
  if (!readVecD(*ser, "t_s", &s.timeSec, err) ||
      !readVecD(*ser, "mean_cache_size", &s.meanCacheSize, err) ||
      !readVecD(*ser, "invalid_entry_frac", &s.invalidEntryFrac, err) ||
      !readVecD(*ser, "mean_sendbuf", &s.meanSendBufOccupancy, err) ||
      !readVecU(*ser, "originated", &s.originated, err) ||
      !readVecU(*ser, "delivered", &s.delivered, err) ||
      !readVecU(*ser, "dropped", &s.dropped, err) ||
      !readVecU(*ser, "cache_hits", &s.cacheHits, err) ||
      !readVecU(*ser, "link_breaks", &s.linkBreaks, err)) {
    return std::nullopt;
  }
  return r;
}

std::size_t JournalState::countStatus(const std::string& status) const {
  std::size_t n = 0;
  for (const auto& [key, e] : cells) {
    if (e.status == status) ++n;
  }
  return n;
}

bool JournalWriter::campaign(const CampaignInfo& info) {
  std::string line = "{";
  kvS(line, "type", "campaign", /*first=*/true);
  kvU(line, "schema", kJournalSchemaVersion);
  kvS(line, "plan", info.plan);
  kvU(line, "points", info.points);
  kvU(line, "replications", static_cast<std::uint64_t>(info.replications));
  kvS(line, "code_version", info.codeVersion);
  kvS(line, "cmd", info.cmd);
  line += '}';
  const util::MutexLock lock(mu_);
  return util::appendLineDurable(path_, line);
}

bool JournalWriter::cell(const JournalEntry& e) {
  std::string line = "{";
  kvS(line, "type", "cell", /*first=*/true);
  kvS(line, "label", e.label);
  kvU(line, "rep", static_cast<std::uint64_t>(e.rep));
  kvS(line, "key", e.key);
  kvS(line, "status", e.status);
  kvU(line, "attempts", static_cast<std::uint64_t>(e.attempts));
  if (!e.error.empty()) kvS(line, "error", e.error);
  if (!e.resultJson.empty()) {
    line += ",\"result\":";
    line += e.resultJson;  // pre-serialized object
  }
  line += '}';
  const util::MutexLock lock(mu_);
  return util::appendLineDurable(path_, line);
}

JournalState loadJournal(const std::string& path) {
  JournalState state;
  std::ifstream in(path, std::ios::binary);
  if (!in) return state;  // absent journal == empty campaign history
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++state.totalLines;
    std::string err;
    const std::optional<util::JsonValue> doc = util::parseJson(line, &err);
    // A torn trailing line (crash mid-append) or a corrupt record must not
    // abort the load: everything before it is still a valid prefix and
    // resuming from that prefix is exactly the journal's purpose.
    if (!doc || !doc->isObject()) {
      ++state.corruptLines;
      continue;
    }
    const std::string type = doc->stringAt("type");
    if (type == "campaign") {
      CampaignInfo c;
      c.plan = doc->stringAt("plan");
      c.points = static_cast<std::size_t>(doc->numberAt("points"));
      c.replications = static_cast<int>(doc->numberAt("replications"));
      c.codeVersion = doc->stringAt("code_version");
      c.cmd = doc->stringAt("cmd");
      state.campaigns.push_back(std::move(c));
    } else if (type == "cell") {
      JournalEntry e;
      e.label = doc->stringAt("label");
      e.rep = static_cast<int>(doc->numberAt("rep"));
      e.key = doc->stringAt("key");
      e.status = doc->stringAt("status");
      e.attempts = static_cast<int>(doc->numberAt("attempts", 1));
      e.error = doc->stringAt("error");
      if (e.label.empty() || e.status.empty()) {
        ++state.corruptLines;
        continue;
      }
      if (e.status == "done") {
        const util::JsonValue* res = doc->find("result");
        if (res == nullptr || !res->isObject()) {
          ++state.corruptLines;
          continue;
        }
        // Keep the raw payload text so restoration parses exactly what was
        // written; re-serializing the parsed tree could reorder keys.
        const std::size_t pos = line.find("\"result\":");
        std::string payload = line.substr(pos + 9);
        if (!payload.empty() && payload.back() == '}') payload.pop_back();
        e.resultJson = std::move(payload);
        e.wallSeconds = res->numberAt("wall_seconds");
      }
      state.cells[{e.label, e.rep}] = std::move(e);
    }
    // Unknown record types from future schema versions are skipped quietly.
  }
  return state;
}

}  // namespace manet::scenario
