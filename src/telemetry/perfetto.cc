#include "src/telemetry/perfetto.h"

#include <cinttypes>
#include <set>

#include "src/util/atomic_file.h"
#include "src/util/json.h"

namespace manet::telemetry {

namespace {

void appendKeyString(std::string& out, std::string_view key,
                     std::string_view value) {
  out += '"';
  out += key;
  out += "\":\"";
  util::appendJsonEscaped(out, value);
  out += '"';
}

}  // namespace

PerfettoWriter::PerfettoWriter(const std::string& path) {
  util::ensureParentDir(path);
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ != nullptr) std::fputs("[\n", f_);
}

PerfettoWriter::~PerfettoWriter() {
  if (f_ == nullptr) return;
  std::fputs("\n]\n", f_);
  std::fclose(f_);
}

void PerfettoWriter::emitRaw(std::string_view eventJson) {
  if (f_ == nullptr) return;
  if (!first_) std::fputs(",\n", f_);
  first_ = false;
  std::fwrite(eventJson.data(), 1, eventJson.size(), f_);
  ++written_;
}

void PerfettoWriter::processName(std::uint32_t pid, std::string_view name) {
  std::string ev = R"({"ph":"M","name":"process_name","pid":)";
  ev += std::to_string(pid);
  ev += R"(,"tid":0,"args":{)";
  appendKeyString(ev, "name", name);
  ev += "}}";
  emitRaw(ev);
}

void PerfettoWriter::threadName(std::uint32_t pid, std::uint32_t tid,
                                std::string_view name) {
  std::string ev = R"({"ph":"M","name":"thread_name","pid":)";
  ev += std::to_string(pid);
  ev += ",\"tid\":";
  ev += std::to_string(tid);
  ev += R"(,"args":{)";
  appendKeyString(ev, "name", name);
  ev += "}}";
  emitRaw(ev);
}

void PerfettoWriter::instant(std::string_view name, std::string_view cat,
                             double tsUs, std::uint32_t pid,
                             std::uint32_t tid, std::string_view argsJson,
                             bool globalScope) {
  std::string ev = "{";
  appendKeyString(ev, "name", name);
  ev += ',';
  appendKeyString(ev, "cat", cat);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"ph\":\"i\",\"ts\":%.3f", tsUs);
  ev += buf;
  ev += ",\"pid\":";
  ev += std::to_string(pid);
  ev += ",\"tid\":";
  ev += std::to_string(tid);
  ev += globalScope ? R"(,"s":"g")" : R"(,"s":"t")";
  if (!argsJson.empty()) {
    ev += ",\"args\":";
    ev += argsJson;
  }
  ev += '}';
  emitRaw(ev);
}

std::string perfettoArgs(const CausalRecord& r) {
  std::string args;
  char buf[96];
  const auto addNum = [&](const char* key, std::uint64_t v) {
    args += args.empty() ? '{' : ',';
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
    args += buf;
  };
  const auto addStr = [&](const char* key, const std::string& v) {
    args += args.empty() ? '{' : ',';
    appendKeyString(args, key, v);
  };
  if (r.uid != 0) addNum("uid", r.uid);
  if (r.cause != 0) addNum("cause", r.cause);
  if (!r.kind.empty()) addStr("kind", r.kind);
  if (!r.reason.empty()) addStr("reason", r.reason);
  if (r.src != 0 || r.dst != 0) {
    addNum("src", r.src);
    addNum("dst", r.dst);
  }
  if (r.prov != 0) {
    addNum("prov", r.prov);
    addStr("origin", r.origin);
    addNum("prov_node", r.provNode);
    args += ',';
    std::snprintf(buf, sizeof(buf), "\"born\":%.9f", r.born);
    args += buf;
    addNum("prov_hops", r.provHops);
  }
  if (r.detail != 0) {
    args += args.empty() ? '{' : ',';
    std::snprintf(buf, sizeof(buf), "\"detail\":%" PRId64, r.detail);
    args += buf;
  }
  if (!args.empty()) args += '}';
  return args;
}

void perfettoEmitRecord(PerfettoWriter& w, const CausalRecord& r) {
  const double tsUs = r.t * 1e6;
  std::string name = r.event;
  if (!r.kind.empty()) {
    name += ':';
    name += r.kind;
  }
  const bool fault = isFaultEvent(r.event);
  const char* cat = fault          ? "fault"
                    : r.uid != 0   ? "packet"
                    : r.prov != 0  ? "cache"
                                   : "protocol";
  w.instant(name, cat, tsUs, kPerfettoNodesPid, r.node, perfettoArgs(r),
            /*globalScope=*/fault);
}

long convertToPerfetto(const std::vector<CausalRecord>& records,
                       const std::string& outPath) {
  PerfettoWriter w(outPath);
  if (!w.ok()) return -1;
  w.processName(kPerfettoNodesPid, "nodes (sim time)");
  std::set<net::NodeId> named;
  for (const CausalRecord& r : records) {
    if (named.insert(r.node).second) {
      w.threadName(kPerfettoNodesPid, r.node,
                   "node " + std::to_string(r.node));
    }
    perfettoEmitRecord(w, r);
  }
  return static_cast<long>(w.eventsWritten());
}

}  // namespace manet::telemetry
