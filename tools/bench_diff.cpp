// bench_diff — the CI regression gate over BENCH_*.json records.
//
//   bench_diff <record.json> <current.json> [--tolerance 0.15]
//
// Compares the "ratios" object of a fresh bench run against the record
// checked into the repo: every ratio present in the record must be achieved
// by the current run up to the tolerance (current >= (1 - tol) * recorded).
// Ratios are dimensionless speedups, so the comparison is meaningful across
// machines of different absolute speed; a shrinking ratio means the fast
// path lost ground against its own baseline on the same hardware. Ratios
// present only in the current run (a new bench phase) pass trivially, and
// the "build" stamps of both documents are printed so a cross-flavour
// comparison is visible in the log.
//
// A current run may carry a top-level "skipped" array naming ratio keys its
// host could not measure (e.g. "simd_vs_scalar_k64" on a machine without
// AVX2). A recorded ratio listed there prints a note instead of failing —
// the hardware cannot regress a path it cannot run.
//
// Exit codes: 0 all ratios hold, 1 regression, 2 usage/IO/parse failure.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/json.h"
#include "common/cli.h"

namespace {

using namespace mcdc;

api::Json read_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return api::Json::parse(buffer.str());
}

void print_build(const char* label, const api::Json& doc) {
  if (!doc.contains("build")) return;
  const api::Json& build = doc.at("build");
  std::printf("%s: %s, %s%s\n", label,
              build.contains("compiler")
                  ? build.at("compiler").as_string().c_str()
                  : "?",
              build.contains("build_type")
                  ? build.at("build_type").as_string().c_str()
                  : "?",
              build.contains("smoke") && build.at("smoke").as_bool()
                  ? " (smoke)"
                  : "");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: bench_diff <record.json> <current.json> "
                 "[--tolerance 0.15]\n");
    return 2;
  }
  try {
    const double tolerance = cli.get_double("tolerance", 0.15);
    const api::Json record = read_json(cli.positional()[0]);
    const api::Json current = read_json(cli.positional()[1]);
    print_build("record ", record);
    print_build("current", current);

    if (!record.contains("ratios") || !current.contains("ratios")) {
      std::fprintf(stderr, "bench_diff: both files need a \"ratios\" object\n");
      return 2;
    }
    const api::Json& want = record.at("ratios");
    const api::Json& have = current.at("ratios");

    const auto skipped_by_host = [&current](const std::string& key) {
      if (!current.contains("skipped")) return false;
      const api::Json& skipped = current.at("skipped");
      for (std::size_t i = 0; i < skipped.size(); ++i) {
        if (skipped.at(i).as_string() == key) return true;
      }
      return false;
    };

    bool ok = true;
    for (const auto& [key, recorded] : want.items()) {
      if (skipped_by_host(key)) {
        std::printf("%-28s recorded %.3f, skipped by the current host\n",
                    key.c_str(), recorded.as_double());
        continue;
      }
      if (!have.contains(key)) {
        std::printf("%-28s recorded %.3f, MISSING from current run\n",
                    key.c_str(), recorded.as_double());
        ok = false;
        continue;
      }
      const double old_value = recorded.as_double();
      const double new_value = have.at(key).as_double();
      const double floor = old_value * (1.0 - tolerance);
      const bool pass = new_value >= floor;
      std::printf("%-28s recorded %8.3f  current %8.3f  floor %8.3f  %s\n",
                  key.c_str(), old_value, new_value, floor,
                  pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bench_diff: ratio regression beyond %.0f%% tolerance\n",
                   tolerance * 100.0);
      return 1;
    }
    std::printf("all ratios within %.0f%% of the record\n", tolerance * 100.0);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_diff: %s\n", error.what());
    return 2;
  }
}
