// perfbench: one run of one benchmark workload.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --workdir=<dir> --gadget=<path to the gadget CLI>
//
// Prints each metric by name and unit, writes the full result document
// (metrics, extra figures, run metadata) under <workdir>/results/, and ends
// with the one-line JSON result. Exits 0 only when every output matched the
// oracle; 1 when one did not; 2 when the run could not be made.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/common/file_util.h"
#include "workloads.h"

namespace {

bool InstrumentedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool Flag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string seed = "1", seconds = "10", trace = "0";
  for (int i = 1; i < argc; ++i) {
    if (!Flag(argv[i], "--workload", &o.workload) && !Flag(argv[i], "--seed", &seed) &&
        !Flag(argv[i], "--seconds", &seconds) && !Flag(argv[i], "--trace", &trace) &&
        !Flag(argv[i], "--workdir", &o.workdir) && !Flag(argv[i], "--gadget", &o.gadget)) {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (InstrumentedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
    return 2;
  }
  char* end = nullptr;
  o.seed = std::strtoull(seed.c_str(), &end, 10);
  o.seconds = std::strtod(seconds.c_str(), nullptr);
  if (*end != '\0' || o.seconds <= 0 || (trace != "0" && trace != "1") || o.workdir.empty() ||
      o.gadget.empty()) {
    std::fprintf(stderr, "perfbench: bad or missing --seed/--seconds/--trace/--workdir/--gadget\n");
    return 2;
  }
  o.trace = trace == "1";

  perfbench::RunResult r;
  const gadget::Status s = perfbench::RunWorkload(o, &r);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), s.ToString().c_str());
    return 2;
  }
  const std::string results = o.workdir + "/results";
  const std::string path = results + "/" + o.workload + "-seed" + seed + "-trace" + trace + ".json";
  if (!gadget::CreateDirIfMissing(results).ok() ||
      !gadget::WriteStringToFile(path, perfbench::ResultDocument(r) + "\n").ok()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 2;
  }
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.extra) {
    std::printf("  (%s %.6g %s)\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("MISMATCH: %s\n", p.c_str());
  }
  std::printf("result file: %s\n", path.c_str());
  std::printf("%s\n", perfbench::ResultLine(r).c_str());
  return r.correct ? 0 : 1;
}
