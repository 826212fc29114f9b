#include "src/prof/hotspot.h"

namespace manet::prof {

const char* toString(AllocSite s) {
  switch (s) {
    case AllocSite::kPacket: return "packet";
    case AllocSite::kEvent: return "event";
    case AllocSite::kTraceRecord: return "trace_record";
  }
  return "?";
}

}  // namespace manet::prof
