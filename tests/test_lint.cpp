// Tests for the determinism-contract linter (src/lint/linter.h).
//
// Fixture files under tests/lint_fixtures/ carry seeded D1-D6
// violations, contract-clean edge cases, and suppression directives;
// they are scanner *input*, never compiled. The fixture tree mirrors the
// real layout (core/, common/, data/) because rule scoping works on path
// segments. A CMake-registered `mcdc_lint` ctest additionally runs the
// real binary over src/ and tools/, so this suite only has to prove the
// engine's semantics, not re-walk the tree.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lint/linter.h"

namespace mcdc::lint {
namespace {

std::string read_fixture(const std::string& rel) {
  const std::string path = std::string(MCDC_LINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints a fixture under its tree-relative path, so core/... scopes like
// src/core/... does.
FileReport lint_fixture(const std::string& rel) {
  return lint_source(rel, read_fixture(rel));
}

int count_rule(const FileReport& report, Rule rule, bool suppressed) {
  int count = 0;
  for (const auto& finding : report.findings) {
    if (finding.rule == rule && finding.suppressed == suppressed) ++count;
  }
  return count;
}

// --- seeded violations: every rule must fire, nothing else may ------------

TEST(LintFixtures, D1WallClockFires) {
  const auto report = lint_fixture("core/d1_wall_clock.cpp");
  EXPECT_EQ(report.suppressed, 0);
  EXPECT_EQ(report.unsuppressed, 2);  // steady_clock::now, std::time(
  EXPECT_EQ(count_rule(report, Rule::kD1WallClock, false), 2);
}

TEST(LintFixtures, D2AmbientRngFires) {
  const auto report = lint_fixture("core/d2_rng.cpp");
  EXPECT_EQ(report.suppressed, 0);
  // random_device, mt19937 (one finding per line), rand()
  EXPECT_EQ(count_rule(report, Rule::kD2AmbientRng, false), 3);
  EXPECT_EQ(report.unsuppressed, 3);
}

TEST(LintFixtures, D3UnorderedContainerFires) {
  const auto report = lint_fixture("core/d3_unordered.cpp");
  EXPECT_EQ(report.suppressed, 0);
  EXPECT_EQ(count_rule(report, Rule::kD3UnorderedContainer, false), 1);
  EXPECT_EQ(report.unsuppressed, 1);
}

TEST(LintFixtures, D4PointerKeyFires) {
  const auto report = lint_fixture("core/d4_pointer_key.cpp");
  EXPECT_EQ(report.suppressed, 0);
  // map<const Node*, ...> plus two uintptr_t tie-break lines
  EXPECT_EQ(count_rule(report, Rule::kD4PointerKey, false), 3);
  EXPECT_EQ(report.unsuppressed, 3);
}

TEST(LintFixtures, D5ParallelReductionFires) {
  const auto report = lint_fixture("core/d5_parallel_reduction.cpp");
  EXPECT_EQ(report.suppressed, 0);
  // captured `total +=` in the chunk body, plus the atomic<double>
  EXPECT_EQ(count_rule(report, Rule::kD5ParallelReduction, false), 2);
  EXPECT_EQ(report.unsuppressed, 2);
}

TEST(LintFixtures, D6IntrinsicsFire) {
  const auto report = lint_fixture("core/d6_intrinsics.cpp");
  EXPECT_EQ(report.suppressed, 0);
  // the <immintrin.h> include (a preprocessor line), the __m256d load
  // line, and the store line
  EXPECT_EQ(count_rule(report, Rule::kD6SimdIntrinsics, false), 3);
  EXPECT_EQ(report.unsuppressed, 3);
}

TEST(LintFixtures, SimdNamedUnitIsExemptFromD6) {
  const auto report = lint_fixture("core/simd_widget.cpp");
  EXPECT_EQ(report.unsuppressed, 0)
      << (report.findings.empty() ? ""
                                  : format_finding(report.findings.front()));
  EXPECT_EQ(report.suppressed, 0);
}

// --- clean fixtures: edges the scanner must not trip over ------------------

TEST(LintFixtures, CleanScoringCodePasses) {
  const auto report = lint_fixture("core/clean.cpp");
  EXPECT_EQ(report.unsuppressed, 0)
      << (report.findings.empty() ? ""
                                  : format_finding(report.findings.front()));
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LintFixtures, TimerAllowlistKeepsTheClockWrapperClean) {
  const auto report = lint_fixture("common/timer.h");
  EXPECT_EQ(report.unsuppressed, 0);
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LintFixtures, D3ScopeStopsAtIngestion) {
  const auto report = lint_fixture("data/d3_out_of_scope.cpp");
  EXPECT_EQ(report.unsuppressed, 0);
  EXPECT_EQ(report.suppressed, 0);
}

// --- suppression round trip -------------------------------------------------

TEST(LintFixtures, SuppressionsCoverEveryRuleAndKeepReasons) {
  const auto report = lint_fixture("core/suppressed.cpp");
  EXPECT_EQ(report.unsuppressed, 0)
      << (report.findings.empty() ? ""
                                  : format_finding(report.findings.front()));
  EXPECT_EQ(report.suppressed, 6);  // one per rule
  for (const Rule rule :
       {Rule::kD1WallClock, Rule::kD2AmbientRng, Rule::kD3UnorderedContainer,
        Rule::kD4PointerKey, Rule::kD5ParallelReduction,
        Rule::kD6SimdIntrinsics}) {
    EXPECT_EQ(count_rule(report, rule, true), 1) << rule_id(rule);
  }
  for (const auto& finding : report.findings) {
    EXPECT_FALSE(finding.reason.empty()) << format_finding(finding);
  }
}

TEST(LintFixtures, StrippingDirectivesResurfacesEveryViolation) {
  std::string source = read_fixture("core/suppressed.cpp");
  // Break every directive; the five violations must come back.
  for (std::size_t at = source.find("mcdc-lint"); at != std::string::npos;
       at = source.find("mcdc-lint", at + 1)) {
    source.replace(at, 9, "xxxx-xxxx");
  }
  const auto report = lint_source("core/suppressed.cpp", source);
  EXPECT_EQ(report.suppressed, 0);
  EXPECT_EQ(report.unsuppressed, 6);
}

TEST(LintFixtures, BadDirectivesSuppressNothingAndAreReported) {
  const auto report = lint_fixture("core/bad_suppression.cpp");
  EXPECT_EQ(count_rule(report, Rule::kD1WallClock, false), 1);
  // reason-less allow(D1), unknown allow(D9), misspelled verb
  EXPECT_EQ(count_rule(report, Rule::kBadSuppression, false), 3);
  EXPECT_EQ(report.suppressed, 0);
}

// --- targeted engine semantics on inline sources ---------------------------

TEST(LintEngine, DirectiveOnCommentLineCoversTheWholeNextStatement) {
  const std::string src =
      "// mcdc-lint: allow(D1) reporting only\n"
      "const auto linger = std::chrono::duration_cast<\n"
      "    std::chrono::steady_clock::duration>(\n"
      "    std::chrono::duration<double>(0.5));\n";
  const auto report = lint_source("serve/q.cpp", src);
  EXPECT_EQ(report.unsuppressed, 0);
  EXPECT_EQ(report.suppressed, 1);
}

TEST(LintEngine, DirectiveDoesNotBlanketTheFollowingStatement) {
  const std::string src =
      "// mcdc-lint: allow(D1) covers only the next statement\n"
      "int x = 0;\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto report = lint_source("serve/q.cpp", src);
  EXPECT_EQ(report.unsuppressed, 1);
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LintEngine, MultiRuleDirectiveAndCommaList) {
  const std::string src =
      "// mcdc-lint: allow(D1,D2) harness warm-up, not scoring\n"
      "auto t = std::chrono::steady_clock::now(); auto r = rand();\n";
  const auto report = lint_source("core/x.cpp", src);
  EXPECT_EQ(report.unsuppressed, 0);
  EXPECT_EQ(report.suppressed, 2);
}

TEST(LintEngine, BacktickedMentionIsDocumentationNotADirective) {
  const std::string src =
      "// Suppress with `mcdc-lint: allow(Dn) reason` on the line.\n"
      "int x = 0;\n";
  const auto report = lint_source("core/x.cpp", src);
  EXPECT_EQ(report.unsuppressed, 0);
  EXPECT_EQ(report.suppressed, 0);
}

TEST(LintEngine, RawStringsAndCharLiteralsAreInvisible) {
  const std::string src =
      "const char* a = R\"(std::chrono::system_clock::now())\";\n"
      "char b = '\\'';\n"
      "auto c = std::unordered_map<int, int>{};\n";
  const auto report = lint_source("data/x.cpp", src);  // out of D3 scope
  EXPECT_EQ(report.unsuppressed, 0);
}

TEST(LintEngine, ScopingHelpers) {
  EXPECT_TRUE(path_in_scoring_scope("src/core/mcdc.cpp"));
  EXPECT_TRUE(path_in_scoring_scope("core/mcdc.cpp"));
  EXPECT_TRUE(path_in_scoring_scope("src/api/model.cpp"));
  EXPECT_FALSE(path_in_scoring_scope("src/data/dataset.cpp"));
  EXPECT_FALSE(path_in_scoring_scope("src/stats/wilcoxon.cpp"));
  EXPECT_TRUE(path_clock_allowlisted("src/common/timer.h"));
  EXPECT_TRUE(path_clock_allowlisted("bench/bench_kernel.cpp"));
  EXPECT_TRUE(path_clock_allowlisted("tools/mcdc_cli.cpp"));
  EXPECT_FALSE(path_clock_allowlisted("src/serve/batch_queue.cpp"));
  EXPECT_TRUE(path_rng_allowlisted("src/common/rng.cpp"));
  EXPECT_FALSE(path_rng_allowlisted("src/core/mcdc.cpp"));
  EXPECT_TRUE(path_simd_allowlisted("src/core/simd.h"));
  EXPECT_TRUE(path_simd_allowlisted("src/core/simd_avx2.cpp"));
  EXPECT_TRUE(path_simd_allowlisted("core/simd_widget.cpp"));
  EXPECT_FALSE(path_simd_allowlisted("src/core/profile_set.cpp"));
  EXPECT_FALSE(path_simd_allowlisted("src/core/mcdc_simd.cpp"));
}

TEST(LintEngine, FindingFormatIsClickable) {
  const auto report =
      lint_source("core/x.cpp", "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(report.findings.size(), 1u);
  const std::string line = format_finding(report.findings.front());
  EXPECT_NE(line.find("core/x.cpp:1: [D1]"), std::string::npos) << line;
}

}  // namespace
}  // namespace mcdc::lint
