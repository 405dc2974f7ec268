// libFuzzer harness for the JSON parser that reads the daemon's NDJSON
// requests: any byte sequence must parse or fail cleanly — never crash,
// overflow the stack, or trip a sanitizer. ParseJson must accept exactly
// what IsValidJson accepts, and an accepted document must survive a
// write -> parse round trip unchanged. Seed the corpus from the checked-in
// job specs:
//
//   mkdir -p corpus && cp tests/data/jobspec_*.json corpus/
//   ./build-fuzz/tests/fuzz/json_fuzz corpus -max_total_time=30
//
// Build with -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json_util.h"

namespace {

using incognito::obs::JsonValue;

/// Canonical text of a parsed document. Numbers print with %.17g, which
/// reads back to the same double.
std::string Write(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.b ? "true" : "false";
    case JsonValue::Type::kNumber:
      return incognito::obs::JsonDouble(v.num);
    case JsonValue::Type::kString:
      return incognito::obs::JsonString(v.str);
    case JsonValue::Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ",";
        out += Write(v.array[i]);
      }
      return out + "]";
    }
    case JsonValue::Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, member] : v.object) {
        if (!first) out += ",";
        first = false;
        out += incognito::obs::JsonString(key) + ":" + Write(member);
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  JsonValue doc;
  const bool parsed = incognito::obs::ParseJson(text, &doc);
  if (parsed != incognito::obs::IsValidJson(text)) __builtin_trap();
  if (!parsed) return 0;
  // Write -> parse -> write is a fixed point.
  const std::string written = Write(doc);
  JsonValue again;
  if (!incognito::obs::ParseJson(written, &again) || Write(again) != written) {
    __builtin_trap();
  }
  return 0;
}
