// libFuzzer harness for the daemon's job-spec decoder: any byte sequence
// is parsed as JSON and decoded with JobSpecFromJson, which must return a
// spec or a clean InvalidArgument. A decoded spec must round-trip:
// JobSpecToJson -> ParseJson -> JobSpecFromJson -> JobSpecToJson gives the
// same text. No job is ever run. Seed the corpus from the checked-in job
// specs:
//
//   mkdir -p corpus && cp tests/data/jobspec_*.json corpus/
//   ./build-fuzz/tests/fuzz/jobspec_fuzz corpus -max_total_time=30
//
// Build with -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json_util.h"
#include "service/job_spec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  incognito::obs::JsonValue doc;
  if (!incognito::obs::ParseJson(text, &doc)) return 0;
  incognito::Result<incognito::JobSpec> spec =
      incognito::JobSpecFromJson(doc);
  if (!spec.ok()) {
    if (spec.status().code() != incognito::StatusCode::kInvalidArgument) {
      __builtin_trap();
    }
    return 0;
  }
  const std::string wire = incognito::JobSpecToJson(spec.value());
  incognito::obs::JsonValue again;
  if (!incognito::obs::ParseJson(wire, &again)) __builtin_trap();
  incognito::Result<incognito::JobSpec> reparsed =
      incognito::JobSpecFromJson(again);
  if (!reparsed.ok() || incognito::JobSpecToJson(reparsed.value()) != wire) {
    __builtin_trap();
  }
  return 0;
}
