#include "common/metrics.h"

#include <charconv>
#include <cmath>

namespace phoebe {

namespace {

void AppendNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::to_chars_result r;
  // Counters stay integral (and exact in a double up to 2^53); everything
  // else prints in the shortest form that round-trips.
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<int64_t>(v));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), v);
  }
  out->append(buf, r.ptr);
}

}  // namespace

std::string MetricsJson(const MetricList& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    // Names are dotted C identifiers: nothing to escape.
    out += '"';
    out += m.name;
    out += "\": ";
    AppendNumber(m.value, &out);
  }
  out += '}';
  return out;
}

}  // namespace phoebe
