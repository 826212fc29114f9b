#include "src/telemetry/causal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <unordered_set>

namespace manet::telemetry {

bool parseCausalLine(const util::JsonValue& line, CausalRecord& out) {
  const util::JsonValue* ev = line.find("ev");
  if (ev == nullptr || !ev->isString()) return false;
  out = CausalRecord{};
  out.t = line.numberAt("t");
  out.event = ev->asString();
  out.reason = line.stringAt("reason");
  out.node = static_cast<net::NodeId>(line.numberAt("node"));
  out.kind = line.stringAt("kind");
  out.uid = static_cast<std::uint64_t>(line.numberAt("uid"));
  out.cause = static_cast<std::uint64_t>(line.numberAt("cause"));
  out.src = static_cast<net::NodeId>(line.numberAt("src"));
  out.dst = static_cast<net::NodeId>(line.numberAt("dst"));
  out.flow = static_cast<std::uint32_t>(line.numberAt("flow"));
  out.detail = static_cast<std::int64_t>(line.numberAt("detail"));
  out.prov = static_cast<std::uint64_t>(line.numberAt("prov"));
  out.origin = line.stringAt("origin");
  out.provNode = static_cast<net::NodeId>(line.numberAt("pnode"));
  out.born = line.numberAt("born");
  out.provHops = static_cast<unsigned>(line.numberAt("phops"));
  return true;
}

std::string_view ageBucketLabel(double ageSeconds) {
  if (ageSeconds < 1.0) return "<1s";
  if (ageSeconds < 2.0) return "1-2s";
  if (ageSeconds < 5.0) return "2-5s";
  if (ageSeconds < 10.0) return "5-10s";
  return ">=10s";
}

CausalIndex::CausalIndex(std::vector<CausalRecord> records) {
  for (CausalRecord& r : records) add(std::move(r));
}

void CausalIndex::add(CausalRecord r) {
  const std::size_t pos = records_.size();
  if (r.uid != 0) {
    byUid_[r.uid].push_back(pos);
    if (r.cause != 0 && r.cause != r.uid) {
      // First sighting wins; a packet has exactly one cause.
      causeOf_.try_emplace(r.uid, r.cause);
      auto& kids = childrenOf_[r.cause];
      if (std::find(kids.begin(), kids.end(), r.uid) == kids.end()) {
        kids.push_back(r.uid);
      }
    }
  }
  records_.push_back(std::move(r));
}

CausalRecord toCausalRecord(const TraceRecord& r) {
  CausalRecord c;
  c.t = r.at.toSeconds();
  c.event = toString(r.event);
  if (r.event == TraceEvent::kPktDrop) c.reason = toString(r.reason);
  c.node = r.node;
  if (r.uid != 0) {
    c.kind = net::toString(r.kind);
    c.flow = r.flowId;
  }
  c.uid = r.uid;
  c.cause = r.cause;
  c.src = r.src;
  c.dst = r.dst;
  c.detail = r.detail;
  c.prov = r.prov.id;
  if (r.prov.id != 0) {
    c.origin = net::toString(r.prov.origin);
    c.provNode = r.prov.insertedBy;
    c.born = r.prov.bornAt.toSeconds();
    c.provHops = r.prov.hopsAtInsert;
  }
  return c;
}

void CausalIndex::add(const TraceRecord& r) { add(toCausalRecord(r)); }

bool isFaultEvent(std::string_view event) {
  return event == "node_crash" || event == "node_recover";
}

std::vector<const CausalRecord*> CausalIndex::packetRecords(
    std::uint64_t uid) const {
  std::vector<const CausalRecord*> out;
  auto it = byUid_.find(uid);
  if (it == byUid_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t pos : it->second) out.push_back(&records_[pos]);
  return out;
}

std::vector<std::uint64_t> CausalIndex::ancestry(std::uint64_t uid) const {
  std::vector<std::uint64_t> chain{uid};
  std::unordered_set<std::uint64_t> seen{uid};
  std::uint64_t cur = uid;
  for (;;) {
    auto it = causeOf_.find(cur);
    if (it == causeOf_.end()) break;
    cur = it->second;
    if (!seen.insert(cur).second) break;  // cycle guard
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::vector<std::uint64_t> CausalIndex::causedBy(std::uint64_t uid) const {
  auto it = childrenOf_.find(uid);
  if (it == childrenOf_.end()) return {};
  std::vector<std::uint64_t> kids = it->second;
  std::sort(kids.begin(), kids.end());
  return kids;
}

namespace {

/// printf onto the end of `out`.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);  // room for the NUL
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   args);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(args);
}

void appendRecordLine(std::string& out, const CausalRecord& r) {
  appendf(out, "  %.9f node=%u %s", r.t, r.node, r.event.c_str());
  if (!r.kind.empty()) appendf(out, " kind=%s", r.kind.c_str());
  if (!r.reason.empty()) appendf(out, " reason=%s", r.reason.c_str());
  if (r.src != 0 || r.dst != 0) appendf(out, " src=%u dst=%u", r.src, r.dst);
  if (r.cause != 0) appendf(out, " cause=%" PRIu64, r.cause);
  if (r.prov != 0) {
    appendf(out, " prov=%" PRIu64 "(%s by n%u born=%.9f hops=%u)", r.prov,
            r.origin.c_str(), r.provNode, r.born, r.provHops);
  }
  if (r.detail != 0) appendf(out, " detail=%" PRId64, r.detail);
  out += '\n';
}

/// One fault-timeline entry in words.
void appendFaultLine(std::string& out, const CausalRecord& r) {
  appendf(out, "  t=%9.3f s  ", r.t);
  if (r.event == "node_crash") {
    appendf(out, "node %u crashed\n", r.node);
  } else {
    appendf(out, "node %u recovered%s\n", r.node,
            r.detail != 0 ? " (caches wiped)" : "");
  }
}

}  // namespace

std::string CausalIndex::renderChain(std::uint64_t uid) const {
  std::string out;
  const auto chain = ancestry(uid);
  appendf(out, "causal chain for uid %" PRIu64 " (%zu packet%s)\n", uid,
          chain.size(), chain.size() == 1 ? "" : "s");
  for (std::uint64_t link : chain) {
    const auto recs = packetRecords(link);
    appendf(out, "packet %" PRIu64 "%s (%zu records)\n", link,
            link == uid ? " *" : "", recs.size());
    for (const CausalRecord* r : recs) appendRecordLine(out, *r);
  }
  const auto kids = causedBy(uid);
  if (!kids.empty()) {
    out += "caused:";
    for (std::uint64_t k : kids) appendf(out, " %" PRIu64, k);
    out += '\n';
  }
  return out;
}

StaleReport CausalIndex::staleReport() const {
  StaleReport rep;
  // (origin, bucket) -> drops; ordered so rows come out sorted.
  std::map<std::pair<std::string, std::string>, std::uint64_t> cells;
  std::set<std::uint64_t> entries;
  for (const CausalRecord& r : records_) {
    if (r.event != "pkt_drop" || r.kind != "DATA") continue;
    if (r.reason != "link_fail_no_salvage" && r.reason != "negative_cache") {
      continue;
    }
    ++rep.staleDrops;
    if (r.prov == 0) continue;
    ++rep.attributed;
    entries.insert(r.prov);
    const double age = r.t - r.born;
    ++cells[{r.origin, std::string(ageBucketLabel(age))}];
  }
  rep.distinctEntries = entries.size();
  rep.rows.reserve(cells.size());
  for (const auto& [key, count] : cells) {
    rep.rows.push_back(StaleReport::Row{key.first, key.second, count});
  }
  return rep;
}

std::string StaleReport::render() const {
  std::string out;
  out += "stale-route drop attribution (origin x entry age at drop)\n";
  appendf(out, "%-18s %-8s %10s\n", "origin", "age", "drops");
  for (const Row& r : rows) {
    appendf(out, "%-18s %-8s %10" PRIu64 "\n", r.origin.c_str(),
            r.ageBucket.c_str(), r.drops);
  }
  const double pct = staleDrops == 0
                         ? 100.0
                         : 100.0 * static_cast<double>(attributed) /
                               static_cast<double>(staleDrops);
  appendf(out,
          "stale drops: %" PRIu64 "  attributed: %" PRIu64
          " (%.1f%%)  distinct entries: %" PRIu64 "\n",
          staleDrops, attributed, pct, distinctEntries);
  return out;
}

std::string CausalIndex::renderSummary() const {
  struct FlowStats {
    std::uint64_t originated = 0;
    std::uint64_t delivered = 0;
    std::map<std::string, std::uint64_t> dropsByReason;
  };
  std::map<std::string, std::uint64_t> events;
  std::map<std::string, std::uint64_t> drops;
  std::map<std::uint32_t, FlowStats> flows;
  std::vector<const CausalRecord*> faults;
  std::uint64_t packetScoped = 0;
  std::uint64_t withCause = 0;
  std::uint64_t withProv = 0;
  for (const CausalRecord& r : records_) {
    ++events[r.event];
    if (r.uid != 0) ++packetScoped;
    if (r.cause != 0) ++withCause;
    if (r.prov != 0) ++withProv;
    if (isFaultEvent(r.event)) faults.push_back(&r);
    if (r.event == "pkt_drop") ++drops[r.reason];
    if (r.uid == 0) continue;  // only packet-scoped records carry a flow
    if (r.event == "pkt_originate") {
      ++flows[r.flow].originated;
    } else if (r.event == "pkt_deliver") {
      ++flows[r.flow].delivered;
    } else if (r.event == "pkt_drop") {
      ++flows[r.flow].dropsByReason[r.reason];
    }
  }

  std::string out;
  appendf(out, "%zu records, t = [%.3f s, %.3f s]\n", records_.size(),
          records_.empty() ? 0.0 : records_.front().t,
          records_.empty() ? 0.0 : records_.back().t);
  appendf(out,
          "packet-scoped %" PRIu64 ", with cause link %" PRIu64
          ", with provenance %" PRIu64 "\n\n",
          packetScoped, withCause, withProv);
  out += "event totals:\n";
  for (const auto& [ev, n] : events) {
    appendf(out, "  %-18s %10" PRIu64 "\n", ev.c_str(), n);
  }
  if (!drops.empty()) out += "\ndrop reasons:\n";
  for (const auto& [why, n] : drops) {
    appendf(out, "  %-22s %10" PRIu64 "\n", why.c_str(), n);
  }

  if (!faults.empty()) {
    appendf(out, "\nfault timeline (%zu events):\n", faults.size());
    // Long churn runs get noisy: show the first 40 entries.
    const std::size_t shown = std::min<std::size_t>(faults.size(), 40);
    for (std::size_t i = 0; i < shown; ++i) appendFaultLine(out, *faults[i]);
    if (shown < faults.size()) {
      appendf(out, "  ... %zu more\n", faults.size() - shown);
    }
  }

  if (!flows.empty()) {
    out += "\nper-flow lifecycle (flow: originated -> delivered, drops by"
           " reason):\n";
  }
  for (const auto& [flowId, fs] : flows) {
    const std::uint64_t lost =
        fs.originated > fs.delivered ? fs.originated - fs.delivered : 0;
    appendf(out,
            "  flow %2u: %6" PRIu64 " -> %6" PRIu64
            "  (%5.1f%% delivered, %" PRIu64 " lost)\n",
            flowId, fs.originated, fs.delivered,
            fs.originated > 0 ? 100.0 * static_cast<double>(fs.delivered) /
                                    static_cast<double>(fs.originated)
                              : 0.0,
            lost);
    for (const auto& [why, n] : fs.dropsByReason) {
      appendf(out, "           %-22s %6" PRIu64 "\n", why.c_str(), n);
    }
  }

  std::uint64_t dropped = 0;
  for (const auto& [why, n] : drops) {
    if (why != "mac_duplicate") dropped += n;
  }
  const std::uint64_t originated = events["pkt_originate"];
  const std::uint64_t delivered = events["pkt_deliver"];
  appendf(out,
          "\noriginated %" PRIu64 ", delivered %" PRIu64 ", dropped %" PRIu64
          " (in-flight/buffered at end: %lld)\n",
          originated, delivered, dropped,
          static_cast<long long>(originated) -
              static_cast<long long>(delivered) -
              static_cast<long long>(dropped));
  return out;
}

}  // namespace manet::telemetry
