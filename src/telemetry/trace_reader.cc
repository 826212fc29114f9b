#include "src/telemetry/trace_reader.h"

#include <fstream>

#include "src/util/json.h"

namespace manet::telemetry {

std::optional<TraceReadResult> readTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  TraceReadResult out;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    std::string err;
    const auto parsed = util::parseJson(line, &err);
    CausalRecord r;
    if (parsed && parseCausalLine(*parsed, r)) {
      out.records.push_back(std::move(r));
      continue;
    }
    out.errors.push_back("line " + std::to_string(lineNo) + ": " +
                         (parsed ? "not a trace record" : err));
  }
  return out;
}

}  // namespace manet::telemetry
