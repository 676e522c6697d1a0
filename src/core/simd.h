// Runtime-dispatched SIMD kernels for the frozen scoring sweep.
//
// ProfileSet's value-major layout makes every inner loop of the scoring
// path a stride-1 elementwise sweep over a k-contiguous cell block. This
// unit hoists those loops behind a function-pointer table selected once at
// startup: an AVX2 implementation (simd_avx2.cpp, compiled -mavx2 in its
// own translation unit) on x86-64 hardware that supports it, and a
// portable scalar fallback everywhere else.
//
// Determinism contract (docs/API.md "Scoring kernel"): every kernel is
// *elementwise* — out[l] only ever combines values at slot l — so the
// per-feature accumulation order inside a row's score is identical across
// scalar and vector paths and across vector widths. No horizontal sums,
// no reassociation, and the AVX2 unit is built with -ffp-contract=off so
// mul+add never fuses into an FMA the scalar path doesn't perform. Labels
// (and scores) are therefore byte-identical across dispatch levels; the
// determinism suite pins FNV goldens per level to enforce it.
//
// Selection: MCDC_SIMD=off|scalar forces the fallback, =avx2 requests
// AVX2 (falls back to scalar when unsupported), =auto or unset picks the
// best supported level. The env var is read once, before any kernel use.
// set_level() is a test/bench hook: call it only while no scoring sweep
// is in flight (e.g. before fanning out a parallel section).
#pragma once

#include <cstddef>

namespace mcdc::core::simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

// Name for reports/logs: "scalar" or "avx2".
const char* level_name(Level level);

// True when the CPU (and build) can execute the AVX2 kernels.
bool avx2_supported();

// The active dispatch level. First call resolves MCDC_SIMD and the CPU.
Level level();

// Forces a dispatch level (test/bench hook); returns the previous level.
// Unsupported requests degrade to kScalar. Not safe to call concurrently
// with in-flight scoring sweeps.
Level set_level(Level level);

// The kernel table. All pointers are non-null; buffers may overlap only
// where a kernel reads and writes the same `out`. None require alignment
// (aligned banks are a throughput contract, not a correctness one).
struct Kernels {
  // out[l] += p[l]
  void (*acc_f64)(double* out, const double* p, std::size_t k);
  // out[l] /= denom   (kept a true division — no reciprocal multiply)
  void (*div_f64)(double* out, double denom, std::size_t k);
  // out[l] += nn[l] > 0.0 ? c[l] / nn[l] : 0.0   (live, unfrozen path)
  void (*quot_f64)(double* out, const double* c, const double* nn,
                   std::size_t k);
  // out[l] += nn[l] > 0.0 ? w[l] * (c[l] / nn[l]) : 0.0   (multiply then
  // add; never fused)
  void (*quot_w_f64)(double* out, const double* w, const double* c,
                     const double* nn, std::size_t k);
  // First index attaining the strict maximum of s[0..k) — the scoring
  // argmax with ties resolved to the lowest cluster id. Matches the
  // scalar scan `best = 0; best_score = -1.0; if (s > best_score) ...`
  // exactly (k == 0 returns 0).
  int (*argmax)(const double* s, std::size_t k);
  // Whole-row frozen score: out[l] = (sum over r of bank[cells[r] + l])
  // / denom, with cells[r] == kNoCell skipped (missing/out-of-domain
  // features contribute nothing). The register-blocked batch microkernel:
  // per lane the accumulation runs r ascending into a single accumulator
  // and divides once, exactly the acc/div sequence the per-row path
  // performs, so labels (and scores) stay byte-identical to it.
  void (*score_row_f64)(double* out, const double* bank,
                        const std::size_t* cells, std::size_t d, double denom,
                        std::size_t k);
};

// Sentinel for score_row_f64 cells entries: skip this feature (missing
// value or out-of-domain category).
inline constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

// The table for the active level. The pointer read is atomic (relaxed),
// so concurrent frozen sweeps may call this freely; swapping the level
// mid-sweep is the caller's bug (see set_level).
const Kernels& kernels();

// Internal (simd_avx2.cpp): the AVX2 table, or nullptr when the build
// target or the running CPU cannot execute it. Use kernels() instead.
const Kernels* detail_avx2_kernels();

}  // namespace mcdc::core::simd
