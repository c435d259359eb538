#include "core/acquisition.hpp"

#include <cmath>
#include <cstring>

namespace hpb::core {

PoolColumns::PoolColumns(const space::ParameterSpace& space,
                         std::span<const space::Configuration> pool)
    : size_(pool.size()) {
  const std::size_t n_params = space.num_params();
  for (const auto& c : pool) {
    HPB_REQUIRE(c.size() == n_params,
                "PoolColumns: configuration size mismatch");
  }
  columns_.resize(n_params);
  distinct_.resize(n_params);
  table_sizes_.assign(n_params, 0);
  continuous_.assign(n_params, 0);
  for (std::size_t i = 0; i < n_params; ++i) {
    std::vector<std::uint32_t>& col = columns_[i];
    col.resize(size_);
    const space::Parameter& p = space.param(i);
    if (p.is_discrete()) {
      const std::size_t levels = p.num_levels();
      table_sizes_[i] = levels;
      for (std::size_t j = 0; j < size_; ++j) {
        const std::size_t level = pool[j].level(i);
        HPB_REQUIRE(level < levels, "PoolColumns: level out of range");
        col[j] = static_cast<std::uint32_t>(level);
      }
    } else {
      continuous_[i] = 1;
      std::vector<double>& distinct = distinct_[i];
      distinct.reserve(size_);
      for (std::size_t j = 0; j < size_; ++j) {
        const double v = pool[j][i];
        HPB_REQUIRE(std::isfinite(v),
                    "PoolColumns: non-finite continuous value");
        distinct.push_back(v);
      }
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      table_sizes_[i] = distinct.size();
      for (std::size_t j = 0; j < size_; ++j) {
        const auto it = std::lower_bound(distinct.begin(), distinct.end(),
                                         pool[j][i]);
        col[j] = static_cast<std::uint32_t>(it - distinct.begin());
      }
    }
  }
  column_ptrs_.resize(n_params);
  for (std::size_t i = 0; i < n_params; ++i) {
    column_ptrs_[i] = columns_[i].data();
  }
  if (space.is_finite()) {
    ordinals_.resize(size_);
    for (std::size_t j = 0; j < size_; ++j) {
      ordinals_[j] = space.ordinal_of(pool[j]);
    }
  }
}

namespace {

/// Bitwise equality of double vectors (memcmp: distinguishes -0.0 from 0.0
/// and never equates NaNs, so a "match" can only mean an identical
/// recomputation — mismatches merely cost a recompute).
bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool scalar_bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool AcquisitionTable::MarginalKey::matches(
    const MarginalKey& other) const noexcept {
  return continuous == other.continuous &&
         scalar_bits_equal(smoothing, other.smoothing) &&
         scalar_bits_equal(bandwidth, other.bandwidth) &&
         scalar_bits_equal(lo, other.lo) && scalar_bits_equal(hi, other.hi) &&
         bits_equal(values, other.values) &&
         bits_equal(weights, other.weights) && bits_equal(rows, other.rows);
}

template <class Rebuild>
void AcquisitionTable::fill_column(std::size_t i, std::size_t rows,
                                   const AcquisitionTable* prev,
                                   const Rebuild& good, const Rebuild& bad) {
  if (rows == 0) {
    return;
  }
  // A column reused from `prev` was computed from a bitwise-identical
  // marginal, so it is the same doubles either way — copy it straight into
  // the flat table. The recompute path also writes in place: the old
  // build-into-temporaries-then-append flow cost one allocation plus a
  // second copy per column, which made the incremental path *slower* than
  // a full build on all-discrete tables (refit speedup 0.91 at pool 2^20).
  double* good_dst = log_good_.data() + offsets_[i];
  double* bad_dst = log_bad_.data() + offsets_[i];
  if (prev != nullptr && good_keys_[i].matches(prev->good_keys_[i])) {
    std::memcpy(good_dst, prev->log_good_.data() + offsets_[i],
                rows * sizeof(double));
    ++reused_columns_;
  } else {
    good(std::span<double>(good_dst, rows));
  }
  if (prev != nullptr && bad_keys_[i].matches(prev->bad_keys_[i])) {
    std::memcpy(bad_dst, prev->log_bad_.data() + offsets_[i],
                rows * sizeof(double));
    ++reused_columns_;
  } else {
    bad(std::span<double>(bad_dst, rows));
  }
}

AcquisitionTable::AcquisitionTable(const TpeSurrogate& surrogate,
                                   const PoolColumns* columns,
                                   const AcquisitionTable* prev) {
  const space::ParameterSpace& space = surrogate.good().space();
  const std::size_t n_params = space.num_params();
  HPB_REQUIRE(columns == nullptr || columns->num_params() == n_params,
              "AcquisitionTable: parameter count mismatch");
  // Rows: the level count for a discrete parameter, the pool's
  // distinct-value count for a continuous one.
  auto rows_of = [&](std::size_t i) {
    const space::Parameter& p = space.param(i);
    HPB_REQUIRE(p.is_discrete() || columns != nullptr,
                "AcquisitionTable: continuous parameters need a pool "
                "(streamed sweeps only serve finite spaces)");
    return p.is_discrete() ? p.num_levels() : columns->table_size(i);
  };
  offsets_.resize(n_params);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_params; ++i) {
    offsets_[i] = total;
    total += rows_of(i);
  }
  // An incremental rebuild requires the previous table to have the same
  // layout; anything else falls back to a full build.
  if (prev != nullptr &&
      (prev->offsets_ != offsets_ || prev->log_good_.size() != total)) {
    prev = nullptr;
  }
  log_good_.resize(total);
  log_bad_.resize(total);
  good_keys_.resize(n_params);
  bad_keys_.resize(n_params);
  auto key_of = [&](const FactorizedDensity& density, std::size_t i) {
    MarginalKey key;
    if (!space.param(i).is_discrete()) {
      const stats::KernelDensity& k = density.kernel(i);
      key.continuous = true;
      key.bandwidth = k.bandwidth();
      key.lo = k.lo();
      key.hi = k.hi();
      key.values.assign(k.centers().begin(), k.centers().end());
      key.weights.assign(k.kernel_weights().begin(), k.kernel_weights().end());
      // The column's rows are this pool's distinct values: a previous
      // table over another pool with as many distinct values must not
      // match.
      const std::span<const double> rows = columns->distinct_values(i);
      key.rows.assign(rows.begin(), rows.end());
    } else {
      const stats::HistogramDensity& h = density.histogram(i);
      key.smoothing = h.smoothing();
      key.values.assign(h.counts().begin(), h.counts().end());
    }
    return key;
  };
  for (std::size_t i = 0; i < n_params; ++i) {
    good_keys_[i] = key_of(surrogate.good(), i);
    bad_keys_[i] = key_of(surrogate.bad(), i);
    // Entries are computed by the exact marginal calls the direct path
    // makes (log_pmf / log_pdf), so a table lookup reproduces the direct
    // score bit for bit.
    auto column = [&](const FactorizedDensity& density) {
      return [&density, &space, columns, i](std::span<double> out) {
        if (space.param(i).is_discrete()) {
          density.histogram(i).log_pmf_table(out);
        } else {
          density.kernel(i).log_pdf_many(columns->distinct_values(i), out);
        }
      };
    };
    fill_column(i, rows_of(i), prev, column(surrogate.good()),
                column(surrogate.bad()));
  }
}

void AcquisitionTable::score_block(const SweepChunk& chunk, double* out,
                                   SimdTier tier) const {
  core::score_block(tier, log_good_.data(), log_bad_.data(), offsets_.data(),
                    chunk.cols, offsets_.size(), chunk.begin, chunk.end, out);
}

SweepChunk pool_rows(const PoolColumns& columns, std::size_t begin,
                     std::size_t end) {
  HPB_REQUIRE(begin <= end && end <= columns.size(),
              "pool_rows: range out of bounds");
  const std::span<const std::uint64_t> ordinals = columns.ordinals();
  return {columns.column_data().data(), begin, end,
          ordinals.empty() ? nullptr : ordinals.data()};
}

StreamChunks::StreamChunks(const space::CandidateStream& stream,
                           std::uint64_t pass)
    : stream_(stream), pass_(pass), cols_(stream.space().num_params()) {}

SweepChunk StreamChunks::operator()(std::size_t chunk) {
  stream_.chunk_candidates(pass_, chunk, candidates_);
  const std::size_t m = candidates_.size();
  levels_.resize(cols_.size() * m);
  ordinals_.resize(m);
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    std::uint32_t* col = levels_.data() + i * m;
    cols_[i] = col;
    for (std::size_t t = 0; t < m; ++t) {
      col[t] = static_cast<std::uint32_t>(candidates_[t].config.level(i));
    }
  }
  for (std::size_t t = 0; t < m; ++t) {
    ordinals_[t] = candidates_[t].ordinal;
  }
  return {cols_.data(), 0, m, ordinals_.data()};
}

}  // namespace hpb::core
