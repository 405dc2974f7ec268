// Replays the libFuzzer harnesses as a plain test, so their bodies run on
// every build, gcc included. Each harness is compiled with its
// LLVMFuzzerTestOneInput renamed (tests/CMakeLists.txt) and fed, in order:
// every file under the test data directory, then a fixed number of inputs
// from a seeded generator — half random bytes over a JSON/CSV-heavy
// alphabet, half mutations of the data files. A harness that finds a fault
// traps or aborts; the handler below first names the harness and input.
//
//   fuzz_replay [DATA_DIR] [RANDOM_INPUTS]

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/random.h"

extern "C" int CsvFuzzOneInput(const uint8_t* data, size_t size);
extern "C" int HierarchyFuzzOneInput(const uint8_t* data, size_t size);
extern "C" int CheckpointFuzzOneInput(const uint8_t* data, size_t size);
extern "C" int KeyCodecFuzzOneInput(const uint8_t* data, size_t size);
extern "C" int JsonFuzzOneInput(const uint8_t* data, size_t size);
extern "C" int JobSpecFuzzOneInput(const uint8_t* data, size_t size);

namespace {

struct Harness {
  const char* name;
  int (*run)(const uint8_t*, size_t);
};

constexpr Harness kHarnesses[] = {
    {"csv_fuzz", CsvFuzzOneInput},
    {"hierarchy_fuzz", HierarchyFuzzOneInput},
    {"checkpoint_fuzz", CheckpointFuzzOneInput},
    {"keycodec_fuzz", KeyCodecFuzzOneInput},
    {"json_fuzz", JsonFuzzOneInput},
    {"jobspec_fuzz", JobSpecFuzzOneInput},
};

// What is running, for the crash handler.
char g_current[256] = "";

void OnCrash(int sig) {
  const char prefix[] = "fuzz_replay: crashed in ";
  (void)!write(2, prefix, sizeof(prefix) - 1);
  (void)!write(2, g_current, strlen(g_current));
  (void)!write(2, "\n", 1);
  signal(sig, SIG_DFL);
  raise(sig);
}

std::vector<std::string> ReadSeeds(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> seeds;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    seeds.push_back(buffer.str());
  }
  return seeds;
}

/// One generated input: random bytes, or a seed with a few byte edits.
std::string Generate(incognito::Rng& rng,
                     const std::vector<std::string>& seeds) {
  static const char kAlphabet[] =
      "{}[]\":,\\ \n\r\t-+.eE0123456789aeflnrstu"
      "kqidmpv=@;|*#'\x01\x7f\xc3\xa9";
  std::string out;
  if (seeds.empty() || rng.Bernoulli(0.5)) {
    const size_t len = rng.Uniform(257);
    for (size_t i = 0; i < len; ++i) {
      out += rng.Bernoulli(0.9)
                 ? kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]
                 : static_cast<char>(rng.Uniform(256));
    }
    return out;
  }
  out = seeds[rng.Uniform(seeds.size())];
  const uint64_t edits = 1 + rng.Uniform(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t pos = out.empty() ? 0 : rng.Uniform(out.size() + 1);
    switch (rng.Uniform(4)) {
      case 0:  // flip a byte
        if (pos < out.size()) out[pos] ^= static_cast<char>(1 + rng.Uniform(255));
        break;
      case 1:  // insert a byte
        out.insert(pos, 1, kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // erase a run
        if (pos < out.size()) out.erase(pos, 1 + rng.Uniform(8));
        break;
      default:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : INCOGNITO_TEST_DATA_DIR;
  const long random_inputs = argc > 2 ? std::atol(argv[2]) : 20000;
  signal(SIGABRT, OnCrash);
  signal(SIGILL, OnCrash);
  signal(SIGSEGV, OnCrash);
  signal(SIGTRAP, OnCrash);

  const std::vector<std::string> seeds = ReadSeeds(dir);
  for (const Harness& harness : kHarnesses) {
    for (size_t i = 0; i < seeds.size(); ++i) {
      snprintf(g_current, sizeof(g_current), "%s on data file #%zu",
               harness.name, i);
      harness.run(reinterpret_cast<const uint8_t*>(seeds[i].data()),
                  seeds[i].size());
    }
    incognito::Rng rng(20261019);
    for (long i = 0; i < random_inputs; ++i) {
      const std::string input = Generate(rng, seeds);
      snprintf(g_current, sizeof(g_current),
               "%s on generated input #%ld (seed 20261019)", harness.name, i);
      harness.run(reinterpret_cast<const uint8_t*>(input.data()),
                  input.size());
    }
    printf("%s: %zu data files + %ld generated inputs\n", harness.name,
           seeds.size(), random_inputs);
  }
  return 0;
}
