#include "core/profile_set.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::core {

namespace {

// Slots per cache line; stride_ is kept a multiple of this so every cell
// block of a 64-byte-aligned bank starts line-aligned.
constexpr std::size_t kLineSlots = kBankAlignment / sizeof(double);

constexpr std::size_t round_up_stride(std::size_t slots) {
  return (slots + kLineSlots - 1) / kLineSlots * kLineSlots;
}

// Rows per gathered tile of the batch sweeps (best_clusters, best_scores):
// cell offsets for 32 rows are resolved in one pass (amortising any view
// indirection) before the register-blocked score_row microkernel sweeps
// them.
constexpr std::size_t kRowTile = 32;

// Per-thread scratch of the row-tile sweeps: one tile's cell offsets and
// one row of lane scores. Grow-only, so a steady-state sweep — a one-row
// Model::predict_score included — allocates nothing.
struct TileScratch {
  std::vector<std::size_t> cells;
  std::vector<double> scores;
};

TileScratch& tile_scratch() {
  thread_local TileScratch scratch;
  return scratch;
}

void assert_bank_aligned(const AlignedVec<double>& bank) {
  // mcdc-lint: allow(D4) debug alignment assert — the address feeds a
  // modulus check, never an ordering or a key.
  assert(bank.empty() ||
         reinterpret_cast<std::uintptr_t>(bank.data()) % kBankAlignment == 0);
  (void)bank;
}

}  // namespace

ProfileSet::ProfileSet(const std::vector<int>& cardinalities, int k)
    : k_(k),
      stride_(round_up_stride(static_cast<std::size_t>(k))),
      cardinalities_(cardinalities) {
  if (k < 0) throw std::invalid_argument("ProfileSet: negative k");
  offsets_.resize(cardinalities_.size() + 1);
  offsets_[0] = 0;
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    if (cardinalities_[r] < 0) {
      throw std::invalid_argument("ProfileSet: negative cardinality");
    }
    offsets_[r + 1] = offsets_[r] + static_cast<std::size_t>(cardinalities_[r]);
  }
  total_cells_ = offsets_.back();
  counts_.assign(total_cells_ * stride_, 0.0);
  non_null_.assign(cardinalities_.size() * stride_, 0.0);
  size_.assign(stride_, 0.0);
  assert_bank_aligned(counts_);
  assert_bank_aligned(non_null_);
}

ProfileSet ProfileSet::from_assignment(const data::DatasetView& ds,
                                       const std::vector<int>& assignment,
                                       int k) {
  const std::size_t n = ds.num_objects();
  if (assignment.size() != n) {
    throw std::invalid_argument(
        "ProfileSet::from_assignment: assignment size mismatch");
  }
  ProfileSet set(ds.cardinalities(), k);
  for (std::size_t i = 0; i < n; ++i) {
    const int l = assignment[i];
    if (l < 0) continue;
    if (l >= k) {
      throw std::invalid_argument(
          "ProfileSet::from_assignment: label out of range");
    }
    set.size_[static_cast<std::size_t>(l)] += 1.0;
  }
  // Feature-major accumulation: each dataset column is swept stride-1 and
  // touches only its own cell block of the bank, instead of every row
  // scattering writes across the whole bank. Identity views read the
  // column pointer directly; indirected views gather per position. The
  // per-feature non-null totals are exactly the column sums of that
  // feature's cell block (counts are integral), so they are derived in one
  // cheap post-pass instead of a second scattered add per cell.
  const std::size_t d = set.cardinalities_.size();
  const int* a = assignment.data();
  for (std::size_t r = 0; r < d; ++r) {
    double* cell_block = set.counts_.data() + set.offsets_[r] * set.stride_;
    const int m_r = set.cardinalities_[r];
    if (ds.is_identity()) {
      const data::Value* column = ds.col(r);
      for (std::size_t i = 0; i < n; ++i) {
        const int l = a[i];
        const data::Value v = column[i];
        if (l < 0 || v < 0 || v >= m_r) continue;
        cell_block[static_cast<std::size_t>(v) * set.stride_ +
                   static_cast<std::size_t>(l)] += 1.0;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const int l = a[i];
        if (l < 0) continue;
        const data::Value v = ds.at(i, r);
        if (v < 0 || v >= m_r) continue;
        cell_block[static_cast<std::size_t>(v) * set.stride_ +
                   static_cast<std::size_t>(l)] += 1.0;
      }
    }
    double* nn = set.non_null_.data() + r * set.stride_;
    for (std::size_t v = 0; v < static_cast<std::size_t>(m_r); ++v) {
      const double* slot = cell_block + v * set.stride_;
      for (std::size_t l = 0; l < static_cast<std::size_t>(k); ++l) {
        nn[l] += slot[l];
      }
    }
  }
  return set;
}

ProfileSet ProfileSet::from_arrays(const std::vector<int>& cardinalities,
                                   const std::vector<double>& sizes,
                                   const std::vector<double>& non_null,
                                   const std::vector<double>& counts) {
  ProfileSet set(cardinalities, static_cast<int>(sizes.size()));
  const std::size_t k = sizes.size();
  const std::size_t d = cardinalities.size();
  const std::size_t cells = set.total_cells_;
  if (non_null.size() != k * d || counts.size() != k * cells) {
    throw std::invalid_argument("ProfileSet::from_arrays: length mismatch");
  }
  for (std::size_t l = 0; l < k; ++l) {
    set.size_[l] = sizes[l];
    for (std::size_t r = 0; r < d; ++r) {
      set.non_null_[r * set.stride_ + l] = non_null[l * d + r];
    }
    for (std::size_t c = 0; c < cells; ++c) {
      set.counts_[c * set.stride_ + l] = counts[l * cells + c];
    }
  }
  return set;
}

ProfileSet ProfileSet::select(const std::vector<int>& clusters) const {
  for (const int l : clusters) {
    if (l < 0 || l >= k_) {
      throw std::out_of_range("ProfileSet::select: cluster id out of range");
    }
  }
  ProfileSet out(cardinalities_, static_cast<int>(clusters.size()));
  const auto gather = [&](const AlignedVec<double>& from,
                          AlignedVec<double>& to, std::size_t slots) {
    for (std::size_t s = 0; s < slots; ++s) {
      const double* src = from.data() + s * stride_;
      double* dst = to.data() + s * out.stride_;
      for (std::size_t j = 0; j < clusters.size(); ++j) {
        dst[j] = src[static_cast<std::size_t>(clusters[j])];
      }
    }
  };
  gather(counts_, out.counts_, total_cells_);
  gather(non_null_, out.non_null_, cardinalities_.size());
  gather(size_, out.size_, 1);
  return out;
}

double ProfileSet::value_similarity(int l, std::size_t r, data::Value v) const {
  if (!in_domain(r, v)) return 0.0;
  const double denom = non_null(l, r);
  if (denom <= 0.0) return 0.0;
  return count(l, r, v) / denom;
}

void ProfileSet::add(int l, data::RowRef row) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] += 1.0;
    non_null_[r * stride_ + lu] += 1.0;
  }
  size_[lu] += 1.0;
}

void ProfileSet::remove(int l, data::RowRef row) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    counts_[cell(r, v) * stride_ + lu] -= 1.0;
    non_null_[r * stride_ + lu] -= 1.0;
  }
  size_[lu] -= 1.0;
}

void ProfileSet::move(int from, int to, data::RowRef row) {
  if (from == to) return;
  thaw();
  const auto fu = static_cast<std::size_t>(from);
  const auto tu = static_cast<std::size_t>(to);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    const std::size_t base = cell(r, v) * stride_;
    counts_[base + fu] -= 1.0;
    counts_[base + tu] += 1.0;
    non_null_[r * stride_ + fu] -= 1.0;
    non_null_[r * stride_ + tu] += 1.0;
  }
  size_[fu] -= 1.0;
  size_[tu] += 1.0;
}

void ProfileSet::scale(double factor) {
  thaw();
  // Spare slots are zero; scaling keeps them zero, so whole-buffer sweeps
  // are safe and vectorise.
  for (double& c : counts_) c *= factor;
  for (double& n : non_null_) n *= factor;
  for (double& s : size_) s *= factor;
}

int ProfileSet::append_cluster() {
  thaw();
  if (static_cast<std::size_t>(k_) < stride_) {
    // Spare slot available — already all-zero by invariant.
    return k_++;
  }
  // Grow the stride geometrically and re-lay the bank once. Doubling a
  // line-multiple keeps the stride a line-multiple (first growth from an
  // empty set lands on one full line).
  const std::size_t old_stride = stride_;
  const std::size_t new_stride = std::max(kLineSlots, old_stride * 2);
  const auto relay = [&](AlignedVec<double>& bank, std::size_t slots) {
    AlignedVec<double> out(slots * new_stride, 0.0);
    for (std::size_t s = 0; s < slots; ++s) {
      std::copy_n(bank.data() + s * old_stride, old_stride,
                  out.data() + s * new_stride);
    }
    bank = std::move(out);
  };
  relay(counts_, total_cells_);
  relay(non_null_, cardinalities_.size());
  size_.resize(new_stride, 0.0);
  stride_ = new_stride;
  assert_bank_aligned(counts_);
  assert_bank_aligned(non_null_);
  return k_++;
}

void ProfileSet::clear_cluster(int l) {
  thaw();
  const auto lu = static_cast<std::size_t>(l);
  for (std::size_t cell = 0; cell < total_cells_; ++cell) {
    counts_[cell * stride_ + lu] = 0.0;
  }
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    non_null_[r * stride_ + lu] = 0.0;
  }
  size_[lu] = 0.0;
}

std::vector<int> ProfileSet::remove_clusters(const std::vector<char>& dead) {
  if (dead.size() != static_cast<std::size_t>(k_)) {
    throw std::invalid_argument("ProfileSet::remove_clusters: mask size");
  }
  thaw();
  const auto old_k = static_cast<std::size_t>(k_);
  std::vector<int> remap(old_k, -1);
  std::size_t live = 0;
  for (std::size_t l = 0; l < old_k; ++l) {
    if (!dead[l]) remap[l] = static_cast<int>(live++);
  }
  if (live == old_k) return remap;
  // In-place left compaction within the existing stride: remap[l] <= l, so
  // ascending writes never clobber a yet-unread slot. Freed slots go back
  // to zero (the spare-slot invariant append_cluster relies on).
  const auto compact = [&](AlignedVec<double>& bank, std::size_t slots) {
    for (std::size_t s = 0; s < slots; ++s) {
      double* p = bank.data() + s * stride_;
      for (std::size_t l = 0; l < old_k; ++l) {
        if (remap[l] >= 0) p[static_cast<std::size_t>(remap[l])] = p[l];
      }
      std::fill(p + live, p + old_k, 0.0);
    }
  };
  compact(counts_, total_cells_);
  compact(non_null_, cardinalities_.size());
  for (std::size_t l = 0; l < old_k; ++l) {
    if (remap[l] >= 0) size_[static_cast<std::size_t>(remap[l])] = size_[l];
  }
  std::fill(size_.begin() + static_cast<std::ptrdiff_t>(live),
            size_.begin() + static_cast<std::ptrdiff_t>(old_k), 0.0);
  k_ = static_cast<int>(live);
  return remap;
}

void ProfileSet::score_all(data::RowRef row, double* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  std::fill(out, out + k, 0.0);
  if (frozen_) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = row[r];
      if (!in_domain(r, v)) continue;
      kr.acc_f64(out, probs_.data() + cell(r, v) * stride_, k);
    }
  } else {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = row[r];
      if (!in_domain(r, v)) continue;
      kr.quot_f64(out, counts_.data() + cell(r, v) * stride_,
                  non_null_.data() + r * stride_, k);
    }
  }
  kr.div_f64(out, static_cast<double>(d), k);
}

void ProfileSet::weighted_score_all(data::RowRef row, const double* weights,
                                    double* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  std::fill(out, out + k, 0.0);
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = row[r];
    if (!in_domain(r, v)) continue;
    kr.quot_w_f64(out, weights + r * k, counts_.data() + cell(r, v) * stride_,
                  non_null_.data() + r * stride_, k);
  }
}

double ProfileSet::score_one(int l, data::RowRef row) const {
  const std::size_t d = cardinalities_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += value_similarity(l, r, row[r]);
  }
  return sum / static_cast<double>(d);
}

double ProfileSet::weighted_score_one(
    int l, data::RowRef row, const std::vector<double>& weights) const {
  const std::size_t d = cardinalities_.size();
  double sum = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    sum += weights[r] * value_similarity(l, r, row[r]);
  }
  return sum;
}

int ProfileSet::best_cluster(data::RowRef row,
                             std::vector<double>& scratch) const {
  scratch.resize(static_cast<std::size_t>(k_));
  score_all(row, scratch.data());
  return simd::kernels().argmax(scratch.data(),
                                static_cast<std::size_t>(k_));
}

template <typename ValueAt, typename Reduce>
void ProfileSet::sweep_row_tiles(std::size_t n, ValueAt value,
                                 Reduce reduce) const {
  if (n == 0) return;
  if (!frozen_) freeze();
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  TileScratch& scratch = tile_scratch();
  if (scratch.cells.size() < kRowTile * d) scratch.cells.resize(kRowTile * d);
  if (scratch.scores.size() < k) scratch.scores.resize(k);
  std::size_t* cells = scratch.cells.data();
  double* scores = scratch.scores.data();
  const simd::Kernels& kr = simd::kernels();
  const double* bank = probs_.data();
  for (std::size_t t0 = 0; t0 < n; t0 += kRowTile) {
    const std::size_t m = std::min(kRowTile, n - t0);
    for (std::size_t t = 0; t < m; ++t) {
      for (std::size_t r = 0; r < d; ++r) {
        const data::Value v = value(t0 + t, r);
        cells[t * d + r] =
            in_domain(r, v) ? cell(r, v) * stride_ : simd::kNoCell;
      }
    }
    // The score_row microkernel register-blocks the k x d sweep: a
    // 32-cluster block of accumulators stays in registers across the whole
    // feature loop, with one fused divide-and-store at the end. Per lane
    // the op sequence (zero, += per feature in r order, one division) is
    // exactly the per-row acc/div path, so scores and labels stay
    // byte-identical to it.
    for (std::size_t t = 0; t < m; ++t) {
      kr.score_row_f64(scores, bank, cells + t * d, d, static_cast<double>(d),
                       k);
      reduce(t0 + t, scores);
    }
  }
}

void ProfileSet::best_clusters(const data::DatasetView& ds, std::size_t lo,
                               std::size_t hi, int* out) const {
  if (hi <= lo) return;
  const auto k = static_cast<std::size_t>(k_);
  const simd::Kernels& kr = simd::kernels();
  sweep_row_tiles(
      hi - lo,
      [&ds, lo](std::size_t i, std::size_t r) { return ds.at(lo + i, r); },
      [out, &kr, k](std::size_t i, const double* scores) {
        out[i] = kr.argmax(scores, k);
      });
}

void ProfileSet::best_clusters(const data::Value* rows, std::size_t n,
                               int* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  const simd::Kernels& kr = simd::kernels();
  sweep_row_tiles(
      n, [rows, d](std::size_t i, std::size_t r) { return rows[i * d + r]; },
      [out, &kr, k](std::size_t i, const double* scores) {
        out[i] = kr.argmax(scores, k);
      });
}

void ProfileSet::best_scores(const data::Value* rows, std::size_t n,
                             double* out) const {
  const auto k = static_cast<std::size_t>(k_);
  const std::size_t d = cardinalities_.size();
  sweep_row_tiles(
      n, [rows, d](std::size_t i, std::size_t r) { return rows[i * d + r]; },
      [out, k](std::size_t i, const double* scores) {
        double best = 0.0;
        for (std::size_t l = 0; l < k; ++l) best = std::max(best, scores[l]);
        out[i] = best;
      });
}

void ProfileSet::freeze() const {
  if (frozen_) return;
  const auto k = static_cast<std::size_t>(k_);
  probs_.assign(counts_.size(), 0.0);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    const double* nn = non_null_.data() + r * stride_;
    for (std::size_t v = 0; v < static_cast<std::size_t>(cardinalities_[r]);
         ++v) {
      const std::size_t base = (offsets_[r] + v) * stride_;
      for (std::size_t l = 0; l < k; ++l) {
        probs_[base + l] = nn[l] > 0.0 ? counts_[base + l] / nn[l] : 0.0;
      }
    }
  }
  frozen_ = true;
  assert_bank_aligned(probs_);
}

std::vector<data::Value> ProfileSet::mode(int l) const {
  std::vector<data::Value> modes(cardinalities_.size(), data::kMissing);
  for (std::size_t r = 0; r < cardinalities_.size(); ++r) {
    double best = 0.0;
    for (data::Value v = 0; v < cardinalities_[r]; ++v) {
      const double c = count(l, r, v);
      if (c > best) {
        best = c;
        modes[r] = v;
      }
    }
  }
  return modes;
}

double ProfileSet::marginal_distribution(std::size_t r,
                                         std::vector<double>& out) const {
  const auto card = static_cast<std::size_t>(cardinalities_[r]);
  out.assign(card, 0.0);
  double mass = 0.0;
  for (int l = 0; l < k_; ++l) mass += non_null(l, r);
  if (mass <= 0.0) return 0.0;
  for (data::Value v = 0; v < cardinalities_[r]; ++v) {
    double pooled = 0.0;
    for (int l = 0; l < k_; ++l) pooled += count(l, r, v);
    out[static_cast<std::size_t>(v)] = pooled / mass;
  }
  return mass;
}

}  // namespace mcdc::core
