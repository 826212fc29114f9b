#include "src/core/dsr_config.h"

#include <stdexcept>
#include <string>

#include "src/core/route_cache.h"

namespace manet::core {

const char* toString(Variant v) {
  switch (v) {
    case Variant::kBase:
      return "DSR";
    case Variant::kWiderError:
      return "WiderError";
    case Variant::kStaticExpiry:
      return "StaticExpiry";
    case Variant::kAdaptiveExpiry:
      return "AdaptiveExpiry";
    case Variant::kNegCache:
      return "NegCache";
    case Variant::kAll:
      return "ALL";
  }
  return "?";
}

DsrConfig makeVariantConfig(Variant v, sim::Time staticTimeout) {
  DsrConfig cfg;  // defaults == Base DSR
  switch (v) {
    case Variant::kBase:
      break;
    case Variant::kWiderError:
      cfg.widerErrorNotification = true;
      break;
    case Variant::kStaticExpiry:
      cfg.expiry = ExpiryMode::kStatic;
      cfg.staticTimeout = staticTimeout;
      break;
    case Variant::kAdaptiveExpiry:
      cfg.expiry = ExpiryMode::kAdaptive;
      break;
    case Variant::kNegCache:
      cfg.negativeCache = true;
      break;
    case Variant::kAll:
      cfg.widerErrorNotification = true;
      cfg.expiry = ExpiryMode::kAdaptive;
      cfg.negativeCache = true;
      break;
  }
  return cfg;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("dsr config: " + what);
}

}  // namespace

void validate(const DsrConfig& cfg) {
  if (cfg.maxSalvageCount < 0) {
    fail("maxSalvageCount must be >= 0, got " +
         std::to_string(cfg.maxSalvageCount));
  }
  if (cfg.expiry == ExpiryMode::kStatic &&
      cfg.staticTimeout <= sim::Time::zero()) {
    fail("staticTimeout must be > 0 when static expiry is on");
  }
  if (cfg.expiry == ExpiryMode::kAdaptive) {
    if (cfg.adaptiveAlpha <= 0.0) {
      fail("adaptiveAlpha must be > 0, got " +
           std::to_string(cfg.adaptiveAlpha));
    }
    if (cfg.adaptiveMinTimeout <= sim::Time::zero()) {
      fail("adaptiveMinTimeout must be > 0");
    }
  }
  if (cfg.expiry != ExpiryMode::kNone &&
      cfg.expiryCheckPeriod <= sim::Time::zero()) {
    fail("expiryCheckPeriod must be > 0 when expiry is on");
  }
  if (cfg.negativeCache) {
    if (cfg.negCacheCapacity == 0) {
      fail("negCacheCapacity must be > 0 when the negative cache is on");
    }
    if (cfg.negCacheTtl <= sim::Time::zero()) {
      fail("negCacheTtl must be > 0 when the negative cache is on");
    }
  }
  if (cfg.routeCacheCapacity == 0) fail("routeCacheCapacity must be > 0");
  if (cfg.cacheStructure == CacheStructure::kPath &&
      cfg.routeCacheCapacity > RouteCache::kMaxCapacity) {
    fail("routeCacheCapacity must be <= " +
         std::to_string(RouteCache::kMaxCapacity) + " for the path cache");
  }
  if (cfg.sendBufferCapacity == 0) fail("sendBufferCapacity must be > 0");
  if (cfg.sendBufferTimeout <= sim::Time::zero()) {
    fail("sendBufferTimeout must be > 0");
  }
  if (cfg.maxRequestTtl == 0) fail("maxRequestTtl must be > 0");
  if (cfg.nonPropagatingRequests &&
      cfg.nonPropRequestTimeout <= sim::Time::zero()) {
    fail("nonPropRequestTimeout must be > 0");
  }
  if (cfg.requestBackoffInitial <= sim::Time::zero()) {
    fail("requestBackoffInitial must be > 0");
  }
  if (cfg.requestBackoffMax < cfg.requestBackoffInitial) {
    fail("requestBackoffMax must be >= requestBackoffInitial");
  }
}

}  // namespace manet::core
