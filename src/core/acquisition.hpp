// Fast acquisition engine for the Ranking strategy's candidate sweep.
//
// The Ranking strategy (§III-D, the configuration used for every figure in
// the paper) rescores the entire candidate pool on every suggest. The
// direct path — TpeSurrogate::acquisition per candidate — walks every
// marginal through variant dispatch and computes two log() calls per
// parameter per candidate; with pools up to 2^24 that sweep dominates a
// tuning session's wall-clock. This module makes the sweep a streaming
// table scan instead:
//
//   - PoolColumns: a structure-of-arrays mirror of the candidate pool.
//     One contiguous per-parameter column of small indices (the level for
//     discrete parameters, the rank of the candidate's value among the
//     pool's distinct values for continuous ones), built once per pool, so
//     the sweep streams through cache instead of chasing heap-allocated
//     Configuration vectors.
//   - AcquisitionTable: per-fit score tables. For every discrete parameter
//     a `level -> (log pg, log pb)` table computed once per surrogate fit;
//     for every continuous parameter the same memo over the pool's
//     distinct values. Scoring a candidate becomes num_params table
//     lookups per accumulator, added in the same order as
//     FactorizedDensity::log_density — the resulting doubles are
//     bitwise-identical to the direct path's. score_block() runs the same
//     gathers through the runtime-dispatched SIMD kernel (core/simd.hpp):
//     lane-per-candidate, so vectorized scores are also bitwise-identical.
//   - acquisition_topk: the one sweep. It walks a candidate source chunk
//     by chunk — column slices of a materialized pool, or one pass of a
//     CandidateStream transposed into level columns — scores each chunk in
//     one score_block() call into a buffer of at most one chunk's doubles,
//     and keeps one running bounded top-k under sweep_better. A full
//     score vector is never materialized, so the working set is one chunk
//     plus k hits regardless of pool size. The sweep is serial: it is
//     memory-bandwidth-bound, and threads measured 0.87-1.13x of it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd.hpp"
#include "core/surrogate.hpp"
#include "space/candidate_stream.hpp"
#include "space/parameter_space.hpp"

namespace hpb::core {

/// Structure-of-arrays mirror of a candidate pool (built once per pool).
class PoolColumns {
 public:
  PoolColumns(const space::ParameterSpace& space,
              std::span<const space::Configuration> pool);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t num_params() const noexcept {
    return columns_.size();
  }

  /// Per-candidate index column of parameter i: the level index for
  /// discrete parameters, the distinct-value rank for continuous ones.
  [[nodiscard]] std::span<const std::uint32_t> column(
      std::size_t param) const {
    return columns_[param];
  }

  /// Per-parameter column base pointers (the layout score_block consumes).
  [[nodiscard]] std::span<const std::uint32_t* const> column_data()
      const noexcept {
    return column_ptrs_;
  }

  /// Sorted distinct values of a continuous parameter's column (empty for
  /// discrete parameters). column(i)[j] indexes into this.
  [[nodiscard]] std::span<const double> distinct_values(
      std::size_t param) const {
    return distinct_[param];
  }

  /// Rows of the score table for parameter i: the level count for discrete
  /// parameters, the distinct-value count for continuous ones.
  [[nodiscard]] std::size_t table_size(std::size_t param) const {
    return table_sizes_[param];
  }

  [[nodiscard]] bool is_continuous(std::size_t param) const {
    return continuous_[param] != 0;
  }

  /// Per-candidate space ordinals (exclusion checks); empty unless the
  /// space is finite.
  [[nodiscard]] std::span<const std::uint64_t> ordinals() const noexcept {
    return ordinals_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::vector<const std::uint32_t*> column_ptrs_;  // columns_[i].data()
  std::vector<std::vector<double>> distinct_;  // continuous params only
  std::vector<std::size_t> table_sizes_;
  std::vector<char> continuous_;  // per-param kind (char: vector<bool> races)
  std::vector<std::uint64_t> ordinals_;
};

/// One chunk of sweep candidates: rows [begin, end) of per-parameter index
/// columns (the layout score_block consumes), and the same rows of the
/// candidates' space ordinals (null when the space is not finite).
struct SweepChunk {
  const std::uint32_t* const* cols = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  const std::uint64_t* ordinals = nullptr;
};

/// Rows [begin, end) of a pool's column mirror as a sweep chunk: slices of
/// its columns and ordinals, nothing copied.
[[nodiscard]] SweepChunk pool_rows(const PoolColumns& columns,
                                   std::size_t begin, std::size_t end);

/// Per-fit `index -> (log pg, log pb)` tables, one column per parameter.
///
/// A discrete parameter's column has one row per level (the histogram's
/// log_pmf_table(), independent of any pool); a continuous parameter's
/// column has one row per distinct value of a pool's column (the KDE's
/// log_pdf over PoolColumns::distinct_values). Continuous parameters
/// therefore need `columns`; a null `columns` builds the pool-independent
/// table of an all-discrete space, which streamed sweeps score freshly
/// generated candidates against — the same doubles a pooled table holds.
///
/// Consecutive fits usually change only a few marginals — the good group in
/// particular is identical between fits whenever the new observations all
/// land below the α-quantile. Passing the previous fit's table as `prev`
/// rebuilds only the columns whose marginal actually changed: each column is
/// keyed by the bitwise state of the marginal density that produced it
/// (histogram counts + smoothing, or KDE centers + weights + bandwidth +
/// support) and, for a continuous column, by the distinct values it was
/// evaluated at. An unchanged key means the recomputation would be
/// bitwise-identical, so the old column is memcpy'd straight into the flat
/// table instead (no temporaries — the reuse path must beat a recompute at
/// every size, which a copy-through-vector did not; see
/// BENCH_acquisition.json's refit_results). Scores are therefore
/// bitwise-identical with or without `prev`. A `prev` whose layout
/// differs is ignored entirely — the automatic fallback to a full build.
class AcquisitionTable {
 public:
  explicit AcquisitionTable(const TpeSurrogate& surrogate,
                            const PoolColumns* columns = nullptr,
                            const AcquisitionTable* prev = nullptr);

  [[nodiscard]] std::size_t num_params() const noexcept {
    return offsets_.size();
  }

  /// Acquisition score of pool candidate j: bitwise-identical to
  /// surrogate.acquisition(pool[j]) — both log-density accumulators add
  /// the per-parameter terms in parameter order before subtracting.
  [[nodiscard]] double score(const PoolColumns& columns,
                             std::size_t j) const {
    double log_good = 0.0;
    double log_bad = 0.0;
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      const std::size_t at = offsets_[i] + columns.column(i)[j];
      log_good += log_good_[at];
      log_bad += log_bad_[at];
    }
    return log_good - log_bad;
  }

  /// Scores the chunk's candidates into out[0 .. end-begin) through the
  /// runtime-dispatched SIMD kernel. Every tier's output is
  /// bitwise-identical to calling score() per candidate.
  void score_block(const SweepChunk& chunk, double* out,
                   SimdTier tier = active_simd_tier()) const;

  /// Per-side columns copied from `prev` instead of recomputed (0..2 per
  /// parameter). Exposed for the sweep span and the incremental bench.
  [[nodiscard]] std::size_t reused_columns() const noexcept {
    return reused_columns_;
  }

 private:
  /// Bitwise fingerprint of the marginal density behind one table column.
  struct MarginalKey {
    bool continuous = false;
    double smoothing = 0.0;  // histogram
    double bandwidth = 0.0;  // KDE
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> values;   // histogram counts / KDE centers
    std::vector<double> weights;  // KDE per-center weights
    std::vector<double> rows;     // KDE: the distinct values evaluated at

    [[nodiscard]] bool matches(const MarginalKey& other) const noexcept;
  };

  /// Fill parameter i's rows of both flat tables in place: memcpy from
  /// `prev` when the marginal key is unchanged, recompute via `rebuild`
  /// otherwise.
  template <class Rebuild>
  void fill_column(std::size_t i, std::size_t rows,
                   const AcquisitionTable* prev, const Rebuild& good,
                   const Rebuild& bad);

  std::vector<std::size_t> offsets_;  // per-param start into the flat tables
  std::vector<double> log_good_;
  std::vector<double> log_bad_;
  std::vector<MarginalKey> good_keys_;  // per-param, for the next fit's diff
  std::vector<MarginalKey> bad_keys_;
  std::size_t reused_columns_ = 0;
};

/// One sweep result. `key` is the candidate's position in the sweep — the
/// pool index for a pool, the index among the pass's valid candidates for
/// a stream (ordered like the raw in-pass index) — and the tie-break. On a
/// flat unconstrained space swept exhaustively the two are equal. `ordinal`
/// is the candidate's space ordinal (0 when the space is not finite).
struct SweepHit {
  std::uint64_t key = 0;
  std::uint64_t ordinal = 0;
  double score = 0.0;
};

/// Strict ordering of the sweep: descending score, ties broken by lowest
/// key (keys are unique within a sweep, so this is a total order).
[[nodiscard]] inline bool sweep_better(const SweepHit& a,
                                       const SweepHit& b) noexcept {
  return a.score > b.score || (a.score == b.score && a.key < b.key);
}

/// Candidates per chunk of a pooled sweep (one score buffer's length).
inline constexpr std::size_t kSweepChunk = 8192;

/// The sweep chunks of one CandidateStream pass: each chunk's valid
/// candidates transposed into level columns (the layout PoolColumns gives
/// a pool), in buffers reused across chunks. Candidates keep the pass's
/// raw-index order, so keys ascend with the in-pass index.
class StreamChunks {
 public:
  StreamChunks(const space::CandidateStream& stream, std::uint64_t pass);

  [[nodiscard]] std::size_t size() const noexcept {
    return stream_.num_chunks();
  }

  /// Chunk `chunk`; valid until the next call.
  [[nodiscard]] SweepChunk operator()(std::size_t chunk);

 private:
  const space::CandidateStream& stream_;
  std::uint64_t pass_ = 0;
  std::vector<space::CandidateStream::Candidate> candidates_;
  std::vector<std::uint32_t> levels_;
  std::vector<const std::uint32_t*> cols_;
  std::vector<std::uint64_t> ordinals_;
};

/// The acquisition sweep: top-k candidates over `num_chunks` chunks, best
/// first under sweep_better. `fill(chunk)` returns chunk `chunk` as a
/// SweepChunk whose pointers stay valid until the next call (pool_rows or
/// StreamChunks); chunks are filled in order and keys count candidates
/// across them. Each chunk is scored in one score_block() call (every SIMD
/// tier gives the same bits) and folded into one running bounded list, so
/// the result equals scoring every candidate, sorting, and truncating to k
/// — independent of chunk boundaries. `excluded(hit)` hides a candidate.
/// Returns fewer than k hits when fewer candidates are unexcluded.
template <class FillChunk, class ExcludedFn>
[[nodiscard]] std::vector<SweepHit> acquisition_topk(
    const AcquisitionTable& table, std::size_t num_chunks, std::size_t k,
    FillChunk&& fill, const ExcludedFn& excluded,
    SimdTier tier = active_simd_tier()) {
  std::vector<SweepHit> best;
  if (k == 0) {
    return best;
  }
  best.reserve(k + 1);
  std::vector<double> scores;
  std::uint64_t key = 0;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const SweepChunk c = fill(chunk);
    scores.resize(c.end - c.begin);
    table.score_block(c, scores.data(), tier);
    for (std::size_t row = c.begin; row < c.end; ++row, ++key) {
      SweepHit hit{key, 0, scores[row - c.begin]};
      // Cheap cut first: a hit enters iff it beats the tail AND is
      // unexcluded, so testing the (almost always false) tail compare
      // before the ordinal load and the exclusion probe keeps the hot loop
      // branch-predictable without changing the result.
      if (best.size() == k && !sweep_better(hit, best.back())) {
        continue;
      }
      if (c.ordinals != nullptr) {
        hit.ordinal = c.ordinals[row];
      }
      if (excluded(hit)) {
        continue;
      }
      auto pos = best.end();
      while (pos != best.begin() && sweep_better(hit, *(pos - 1))) {
        --pos;
      }
      best.insert(pos, hit);
      if (best.size() > k) {
        best.pop_back();
      }
    }
  }
  return best;
}

}  // namespace hpb::core
