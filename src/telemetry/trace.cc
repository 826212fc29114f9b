#include "src/telemetry/trace.h"

#include <cinttypes>

#include "src/util/atomic_file.h"

namespace manet::telemetry {

const char* toString(TraceEvent e) {
  switch (e) {
    case TraceEvent::kPktOriginate:
      return "pkt_originate";
    case TraceEvent::kPktForward:
      return "pkt_forward";
    case TraceEvent::kPktDeliver:
      return "pkt_deliver";
    case TraceEvent::kPktDrop:
      return "pkt_drop";
    case TraceEvent::kCacheHit:
      return "cache_hit";
    case TraceEvent::kCacheMiss:
      return "cache_miss";
    case TraceEvent::kCacheEvict:
      return "cache_evict";
    case TraceEvent::kCacheExpire:
      return "cache_expire";
    case TraceEvent::kCacheInsert:
      return "cache_insert";
    case TraceEvent::kNegCacheInsert:
      return "neg_cache_insert";
    case TraceEvent::kNegCacheExpire:
      return "neg_cache_expire";
    case TraceEvent::kRerrOriginate:
      return "rerr_originate";
    case TraceEvent::kRerrForward:
      return "rerr_forward";
    case TraceEvent::kLinkBreak:
      return "link_break";
    case TraceEvent::kNodeCrash:
      return "node_crash";
    case TraceEvent::kNodeRecover:
      return "node_recover";
  }
  return "unknown";
}

const char* toString(DropReason r) {
  switch (r) {
    case DropReason::kNone:
      return "none";
    case DropReason::kSendBufferTimeout:
      return "send_buffer_timeout";
    case DropReason::kSendBufferOverflow:
      return "send_buffer_overflow";
    case DropReason::kIfqFull:
      return "ifq_full";
    case DropReason::kLinkFailNoSalvage:
      return "link_fail_no_salvage";
    case DropReason::kNegativeCache:
      return "negative_cache";
    case DropReason::kTtlExpired:
      return "ttl_expired";
    case DropReason::kMacDuplicate:
      return "mac_duplicate";
    case DropReason::kNodeDown:
      return "node_down";
  }
  return "unknown";
}

TraceRecord packetRecord(TraceEvent event, sim::Time at, net::NodeId node,
                         const net::Packet& p, DropReason reason) {
  TraceRecord r;
  r.at = at;
  r.event = event;
  r.reason = reason;
  r.node = node;
  r.kind = p.kind;
  r.uid = p.uid;
  r.src = p.src;
  r.dst = p.dst;
  r.flowId = p.flowId;
  r.seqInFlow = p.seqInFlow;
  r.cause = p.causeUid;
  r.prov = p.routeProv;
  return r;
}

std::string toJson(const TraceRecord& r) {
  char buf[256];
  std::string out;
  out.reserve(192);
  std::snprintf(buf, sizeof(buf), "{\"t\":%.9f,\"ev\":\"%s\",\"node\":%u",
                r.at.toSeconds(), toString(r.event), r.node);
  out += buf;
  const bool packetScoped = r.uid != 0;
  if (packetScoped) {
    std::snprintf(buf, sizeof(buf),
                  ",\"kind\":\"%s\",\"uid\":%" PRIu64
                  ",\"src\":%u,\"dst\":%u,\"flow\":%u,\"seq\":%" PRIu64,
                  net::toString(r.kind), r.uid, r.src, r.dst, r.flowId,
                  r.seqInFlow);
    out += buf;
  } else if (r.src != 0 || r.dst != 0) {
    // Link-scoped events (link breaks, negative-cache churn, cache lookups)
    // reuse src/dst for the link or lookup endpoints.
    std::snprintf(buf, sizeof(buf), ",\"src\":%u,\"dst\":%u", r.src, r.dst);
    out += buf;
  }
  if (r.event == TraceEvent::kPktDrop) {
    std::snprintf(buf, sizeof(buf), ",\"reason\":\"%s\"", toString(r.reason));
    out += buf;
  }
  if (r.detail != 0) {
    std::snprintf(buf, sizeof(buf), ",\"detail\":%" PRId64, r.detail);
    out += buf;
  }
  if (r.cause != 0) {
    std::snprintf(buf, sizeof(buf), ",\"cause\":%" PRIu64, r.cause);
    out += buf;
  }
  if (r.prov.id != 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"prov\":%" PRIu64
                  ",\"origin\":\"%s\",\"pnode\":%u,\"born\":%.9f,\"phops\":%u",
                  r.prov.id, net::toString(r.prov.origin), r.prov.insertedBy,
                  r.prov.bornAt.toSeconds(),
                  static_cast<unsigned>(r.prov.hopsAtInsert));
    out += buf;
  }
  out += '}';
  return out;
}

// ------------------------------------------------------------- RingBuffer

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buf_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void RingBufferSink::record(const TraceRecord& r) {
  if (buf_.size() < capacity_) {
    buf_.push_back(r);
  } else {
    buf_[head_] = r;
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<TraceRecord> RingBufferSink::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

void RingBufferSink::clear() {
  buf_.clear();
  head_ = 0;
}

// ------------------------------------------------------------ JsonlFile

JsonlFileSink::JsonlFileSink(const std::string& path) : path_(path) {
  util::ensureParentDir(path);
  f_ = std::fopen(path.c_str(), "w");
}

JsonlFileSink::~JsonlFileSink() {
  if (f_ != nullptr) std::fclose(f_);
}

void JsonlFileSink::record(const TraceRecord& r) {
  if (f_ == nullptr) return;
  const std::string line = toJson(r);
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fputc('\n', f_);
  ++written_;
}

void JsonlFileSink::flush() {
  if (f_ != nullptr) std::fflush(f_);
}

}  // namespace manet::telemetry
