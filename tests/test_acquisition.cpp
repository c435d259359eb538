// Acquisition sweep engine (core/acquisition.hpp) and the suggest-path
// fixes that ride along with it:
//   - score tables are bitwise-identical to TpeSurrogate::acquisition, and
//     reuse a previous table's column only over the same distinct values;
//   - the chunked top-k sweep breaks ties toward the lowest key, and the
//     tuner's suggestions, pooled or streamed, match the sweep oracle;
//   - serial suggest() marks its choice pending (no duplicate suggestions);
//   - the dense-exclusion random phase terminates via the linear-scan path,
//     and observations outside a sparse pool take no pool slot;
//   - degenerate KDEs yield uniform importance marginals instead of aborting;
//   - History::split and make_transfer_prior agree on the rank-based split.
#include "core/acquisition.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/hiperbot.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "stats/quantile.hpp"
#include "test_util.hpp"

namespace hpb::core {
namespace {

using space::Configuration;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ------------------------------------------------ table vs direct, bitwise

TEST(Acquisition, TableMatchesDirectBitwiseOnDiscreteSpace) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 5) {
    h.add(pool[j], ds.value_of(pool[j]));
  }
  const TpeSurrogate s(ds.space_ptr(), h, 0.2);
  const PoolColumns columns(ds.space(), pool);
  const AcquisitionTable table(s, &columns);
  for (std::size_t j = 0; j < pool.size(); ++j) {
    EXPECT_EQ(bits(table.score(columns, j)), bits(s.acquisition(pool[j])))
        << "candidate " << j;
  }
}

TEST(Acquisition, TableMatchesDirectBitwiseOnMixedSpace) {
  auto space = testutil::mixed_space();
  // A gridded pool with repeated continuous values, so the distinct-value
  // memo actually deduplicates (15 pool rows share 5 distinct t values).
  std::vector<Configuration> pool;
  for (double level : {0.0, 1.0, 2.0}) {
    for (double t : {0.25, 1.75, 3.5, 3.5, 9.0}) {
      pool.emplace_back(std::vector<double>{level, t});
    }
  }
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 2) {
    h.add(pool[j], pool[j][1] + static_cast<double>(pool[j].level(0)));
  }
  const TpeSurrogate s(space, h, 0.3);
  const PoolColumns columns(*space, pool);
  EXPECT_TRUE(columns.is_continuous(1));
  EXPECT_EQ(columns.table_size(1), 4u);  // 5 grid points, one repeated
  EXPECT_TRUE(columns.ordinals().empty());  // not a finite space
  const AcquisitionTable table(s, &columns);
  for (std::size_t j = 0; j < pool.size(); ++j) {
    EXPECT_EQ(bits(table.score(columns, j)), bits(s.acquisition(pool[j])))
        << "candidate " << j;
  }
}

TEST(Acquisition, TableReuseNeedsEqualDistinctValues) {
  // Two pools over the mixed space with as many distinct t values each, so
  // the layouts match; only the continuous rows' values differ. Reusing
  // pool A's t columns for pool B would score B at A's values.
  auto space = testutil::mixed_space();
  auto pool_over = [](double t0, double t1) {
    std::vector<Configuration> pool;
    for (double level : {0.0, 1.0, 2.0}) {
      for (double t : {t0, t1}) {
        pool.emplace_back(std::vector<double>{level, t});
      }
    }
    return pool;
  };
  const std::vector<Configuration> pool_a = pool_over(1.0, 2.0);
  const std::vector<Configuration> pool_b = pool_over(6.0, 9.0);
  History h;
  for (double t : {0.5, 1.5, 3.0, 4.5, 7.0, 8.5}) {
    h.add(Configuration(std::vector<double>{t < 4.0 ? 0.0 : 2.0, t}), t);
  }
  const TpeSurrogate s(space, h, 0.3);
  const PoolColumns columns_a(*space, pool_a);
  const PoolColumns columns_b(*space, pool_b);
  const AcquisitionTable table_a(s, &columns_a);
  const AcquisitionTable table_b(s, &columns_b, &table_a);
  EXPECT_EQ(table_b.reused_columns(), 2u);  // the discrete good/bad pair
  for (std::size_t j = 0; j < pool_b.size(); ++j) {
    EXPECT_EQ(bits(table_b.score(columns_b, j)),
              bits(s.acquisition(pool_b[j])))
        << "candidate " << j;
  }
  // Over the same distinct values every column is reused.
  const PoolColumns columns_a2(*space, pool_over(1.0, 2.0));
  EXPECT_EQ(AcquisitionTable(s, &columns_a2, &table_a).reused_columns(), 4u);
}

// ------------------------------------------------------- the sweep itself

TEST(Acquisition, TopkBreaksTiesTowardLowestIndex) {
  // Every candidate indexes row 0 of every column, so all scores tie; the
  // uneven chunks check that keys count across chunk boundaries.
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  History h;
  for (std::size_t j = 0; j < pool.size(); j += 5) {
    h.add(pool[j], ds.value_of(pool[j]));
  }
  const TpeSurrogate s(ds.space_ptr(), h, 0.2);
  const AcquisitionTable table(s);
  const std::vector<std::uint32_t> zeros(1000, 0);
  const std::vector<const std::uint32_t*> cols(ds.space().num_params(),
                                               zeros.data());
  std::vector<std::uint64_t> ordinals(1000);
  for (std::size_t j = 0; j < ordinals.size(); ++j) {
    ordinals[j] = 7 * j;
  }
  const std::size_t bounds[] = {0, 1, 400, 401, 1000};
  const auto fill = [&](std::size_t chunk) {
    return SweepChunk{cols.data(), bounds[chunk], bounds[chunk + 1],
                      ordinals.data()};
  };
  const auto hits =
      acquisition_topk(table, 4, 3, fill,
                       [](const SweepHit& hit) { return hit.ordinal == 7; });
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].key, 0u);
  EXPECT_EQ(hits[1].key, 2u);  // key 1 (ordinal 7) is excluded
  EXPECT_EQ(hits[2].key, 3u);
  EXPECT_EQ(hits[2].ordinal, 21u);
  EXPECT_EQ(bits(hits[0].score), bits(hits[2].score));
  const auto none = [](const SweepHit&) { return false; };
  EXPECT_TRUE(acquisition_topk(table, 0, 3, fill, none).empty());
  EXPECT_TRUE(acquisition_topk(table, 4, 0, fill, none).empty());
}

// ------------------------------- tuner sweeps: pooled and streamed vs oracle

// Null pool: the tuner streams the (flat, small) space instead.
HiPerBOt make_tuner(const tabular::TabularObjective& ds,
                    const HiPerBOtConfig& config, std::uint64_t seed,
                    bool streamed) {
  return streamed ? HiPerBOt(ds.space_ptr(), config, seed, nullptr)
                  : HiPerBOt(ds.space_ptr(), config, seed);
}

TEST(Acquisition, SuggestionsMatchOracle) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  HiPerBOtConfig config;
  config.initial_samples = 8;
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "pooled");
    HiPerBOt tuner = make_tuner(ds, config, 99, streamed);
    obs::MetricsRegistry metrics;
    const obs::Recorder rec{.metrics = &metrics};
    tuner.set_recorder(&rec);
    std::set<std::uint64_t> observed;
    for (int t = 0; t < 30; ++t) {
      std::vector<SweepHit> expected;
      if (t >= 8) {
        expected = testutil::oracle_topk(
            tuner.fit_surrogate(), pool, 1, [&](const SweepHit& hit) {
              return observed.contains(hit.ordinal);
            });
        ASSERT_EQ(expected.size(), 1u);
      }
      const Configuration c = tuner.suggest();
      if (t >= 8) {
        EXPECT_EQ(c.values(), pool[expected.front().key].values())
            << "step " << t;
        EXPECT_EQ(bits(metrics.gauge("hiperbot.acquisition_best").value()),
                  bits(expected.front().score));
      }
      observed.insert(ds.space().ordinal_of(c));
      tuner.observe(c, ds.value_of(c));
    }
  }
}

TEST(Acquisition, BatchesMatchOracle) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  HiPerBOtConfig config;
  config.initial_samples = 6;
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "pooled");
    HiPerBOt tuner = make_tuner(ds, config, 41, streamed);
    std::set<std::uint64_t> observed;
    for (int round = 0; round < 8; ++round) {
      std::vector<SweepHit> expected;
      const bool model = tuner.history().size() >= config.initial_samples;
      if (model) {
        expected = testutil::oracle_topk(
            tuner.fit_surrogate(), pool, 3, [&](const SweepHit& hit) {
              return observed.contains(hit.ordinal);
            });
      }
      const std::vector<Configuration> batch = tuner.suggest_batch(3);
      ASSERT_EQ(batch.size(), 3u);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (model) {
          EXPECT_EQ(batch[i].values(), pool[expected[i].key].values())
              << "round " << round << " member " << i;
        }
        observed.insert(ds.space().ordinal_of(batch[i]));
        tuner.observe(batch[i], ds.value_of(batch[i]));
      }
    }
  }
}

// ----------------------------------------- serial suggest() marks pending

TEST(SuggestPending, SerialSuggestionsNeverRepeatWhileUnobserved) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 4;
  HiPerBOt tuner(ds.space_ptr(), config, 5);

  // Initial (random) phase: two back-to-back suggests must differ.
  const Configuration a = tuner.suggest();
  const Configuration b = tuner.suggest();
  EXPECT_NE(ds.space().ordinal_of(a), ds.space().ordinal_of(b));
  tuner.observe(a, ds.value_of(a));
  tuner.observe(b, ds.value_of(b));
  for (int t = 0; t < 2; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }

  // Model phase: unobserved serial suggestions stay excluded, both from
  // later serial suggests and from a later batch.
  std::set<std::uint64_t> seen;
  const Configuration c = tuner.suggest();
  const Configuration d = tuner.suggest();
  EXPECT_TRUE(seen.insert(ds.space().ordinal_of(c)).second);
  EXPECT_TRUE(seen.insert(ds.space().ordinal_of(d)).second);
  for (const Configuration& e : tuner.suggest_batch(4)) {
    EXPECT_TRUE(seen.insert(ds.space().ordinal_of(e)).second);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(SuggestPending, SerialLoopMatchesBatchOfOneBitwise) {
  // The pending marker must not disturb the classic suggest/observe loop:
  // it is released by the observe() before the next suggest, so the serial
  // loop and the batch(1) loop walk identical RNG and surrogate states.
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 8;
  HiPerBOt serial(ds.space_ptr(), config, 123);
  HiPerBOt batched(ds.space_ptr(), config, 123);
  for (int t = 0; t < 25; ++t) {
    const Configuration a = serial.suggest();
    const auto batch = batched.suggest_batch(1);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(ds.space().ordinal_of(a), ds.space().ordinal_of(batch.front()))
        << "iteration " << t;
    serial.observe(a, ds.value_of(a));
    batched.observe(batch.front(), ds.value_of(batch.front()));
  }
  EXPECT_EQ(bits(serial.history().best_value()),
            bits(batched.history().best_value()));
}

// ------------------------------------ dense-exclusion random phase (scan)

TEST(SuggestPending, DenseExclusionReturnsEachFreeConfigOnce) {
  auto ds = testutil::separable_dataset();  // 60 configurations
  HiPerBOtConfig config;
  config.initial_samples = 60;  // keep the tuner in the random phase
  HiPerBOt tuner(ds.space_ptr(), config, 3);
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  std::set<std::uint64_t> free_ordinals;
  for (std::size_t j = 0; j < pool.size(); ++j) {
    if (j == 17 || j == 41) {
      free_ordinals.insert(ds.space().ordinal_of(pool[j]));
      continue;
    }
    tuner.observe(pool[j], ds.value_of(pool[j]));
  }
  // 58 of 60 excluded: far past the scan threshold. Each remaining config
  // comes back exactly once (suggest marks it pending), then the pool is
  // exhausted.
  std::set<std::uint64_t> got;
  got.insert(ds.space().ordinal_of(tuner.suggest()));
  got.insert(ds.space().ordinal_of(tuner.suggest()));
  EXPECT_EQ(got, free_ordinals);
  EXPECT_THROW((void)tuner.suggest(), Error);
}

TEST(SuggestPending, ObservationsOutsideASparsePoolTakeNoPoolSlot) {
  // The pool holds 4 of the 60 configurations; the observations (say, warm
  // start rows) are 4 others. They are excluded, but take no pool slot, so
  // every pool member is still suggested exactly once.
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> all = ds.space_ptr()->enumerate();
  const auto pool = std::make_shared<const std::vector<Configuration>>(
      std::vector<Configuration>{all[3], all[17], all[29], all[58]});
  std::set<std::uint64_t> members;
  for (const Configuration& c : *pool) {
    members.insert(ds.space().ordinal_of(c));
  }
  const auto observe_outsiders = [&](HiPerBOt& tuner) {
    for (std::size_t j : {0u, 1u, 2u, 4u}) {
      tuner.observe(all[j], ds.value_of(all[j]));
    }
  };
  HiPerBOt serial(ds.space_ptr(), {}, 8, pool);
  observe_outsiders(serial);
  std::set<std::uint64_t> got;
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(got.insert(ds.space().ordinal_of(serial.suggest())).second);
  }
  EXPECT_EQ(got, members);
  EXPECT_THROW((void)serial.suggest(), Error);

  HiPerBOt batched(ds.space_ptr(), {}, 8, pool);
  observe_outsiders(batched);
  got.clear();
  for (const Configuration& c : batched.suggest_batch(6)) {
    EXPECT_TRUE(got.insert(ds.space().ordinal_of(c)).second);
  }
  EXPECT_EQ(got, members);
}

// --------------------------------------------- degenerate KDE importance

TEST(Density, DegenerateKdeMarginalFallsBackToUniform) {
  // All mass at the domain edge with a bandwidth ~12 orders of magnitude
  // below the range: every importance-bin midpoint underflows to pdf 0.
  // Importance export must degrade to the uniform marginal, not abort.
  auto space = std::make_shared<space::ParameterSpace>();
  space->add(space::Parameter::continuous("t", 0.0, 1e9));
  DensityConfig dc;
  dc.kde_bandwidth = 1e-3;
  dc.importance_bins = 16;
  const std::vector<Configuration> samples{Configuration({0.0}),
                                           Configuration({0.0})};
  const FactorizedDensity d(space, samples, dc);
  const std::vector<double> probs = d.marginal_probabilities(0);
  ASSERT_EQ(probs.size(), 16u);
  for (const double p : probs) {
    EXPECT_DOUBLE_EQ(p, 1.0 / 16.0);
  }
}

// ------------------------------------------------- rank-split tie pinning

TEST(RankSplit, AllEqualValuesSplitByInsertionOrder) {
  const std::vector<double> values{5.0, 5.0, 5.0, 5.0, 5.0};
  const stats::RankSplit rs = stats::rank_split(values, 0.4);
  EXPECT_EQ(rs.good, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rs.bad, (std::vector<std::size_t>{2, 3, 4}));
  EXPECT_EQ(rs.threshold, 5.0);
}

TEST(RankSplit, TiesAtTheBoundaryKeepEarlierObservationsGood) {
  const std::vector<double> values{3.0, 1.0, 3.0, 1.0, 2.0};
  const stats::RankSplit rs = stats::rank_split(values, 0.4);
  EXPECT_EQ(rs.good, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(rs.bad, (std::vector<std::size_t>{4, 0, 2}));
  EXPECT_EQ(rs.threshold, 2.0);
}

TEST(RankSplit, HistorySplitAndTransferPriorAgree) {
  auto ds = testutil::separable_dataset();
  const std::vector<Configuration> pool = ds.space_ptr()->enumerate();
  // Values with deliberate ties (the dataset's objective has many).
  std::vector<Configuration> configs;
  std::vector<double> values;
  History h;
  for (std::size_t j = 0; j < 20; ++j) {
    configs.push_back(pool[j * 3]);
    values.push_back(ds.value_of(pool[j * 3]));
    h.add(configs.back(), values.back());
  }
  const double alpha = 0.25;
  const stats::RankSplit rs = stats::rank_split(values, alpha);
  const HistorySplit hs = h.split(alpha);
  EXPECT_EQ(hs.good, rs.good);
  EXPECT_EQ(hs.bad, rs.bad);
  EXPECT_EQ(bits(hs.threshold), bits(rs.threshold));

  // make_transfer_prior must group by the same rank split: its good density
  // equals one fit directly from the rank-split good configurations.
  const DensityConfig dc;
  const TransferPrior prior =
      make_transfer_prior(ds.space_ptr(), configs, values, alpha, dc);
  std::vector<Configuration> good_configs;
  for (const std::size_t j : rs.good) {
    good_configs.push_back(configs[j]);
  }
  const FactorizedDensity expected(ds.space_ptr(), good_configs, dc);
  for (const Configuration& c : pool) {
    EXPECT_EQ(bits(prior.good.log_density(c)), bits(expected.log_density(c)));
  }
}

// ----------------------------------------------------- sweep observability

class SweepSpanSink final : public obs::TraceSink {
 public:
  std::uint64_t next_id() override { return ++ids_; }
  void emit(const obs::TraceEvent& event) override {
    if (event.name != "hiperbot.sweep") {
      return;
    }
    ++sweep_spans_;
    for (const obs::TraceAttr& attr : event.attrs) {
      if (attr.key == "mode") {
        last_mode_ = std::string(attr.string_value);
      } else if (attr.key == "pool") {
        last_pool_ = attr.uint_value;
      }
      keys_.insert(std::string(attr.key));
    }
  }

  std::uint64_t ids_ = 0;
  int sweep_spans_ = 0;
  std::string last_mode_;
  std::uint64_t last_pool_ = 0;
  std::set<std::string> keys_;
};

TEST(Acquisition, SweepEmitsSpanAndCountsSweeps) {
  auto ds = testutil::separable_dataset();
  HiPerBOtConfig config;
  config.initial_samples = 4;
  HiPerBOt tuner(ds.space_ptr(), config, 11);
  SweepSpanSink sink;
  obs::MetricsRegistry metrics;
  const obs::Recorder rec{.trace = &sink, .metrics = &metrics};
  tuner.set_recorder(&rec);
  for (int t = 0; t < 6; ++t) {
    const Configuration c = tuner.suggest();
    tuner.observe(c, ds.value_of(c));
  }
  EXPECT_EQ(sink.sweep_spans_, 2);  // iterations 5 and 6 fit the surrogate
  EXPECT_EQ(metrics.counter("hiperbot.sweeps").value(), 2u);
  EXPECT_EQ(sink.last_mode_, "table");
  EXPECT_EQ(sink.last_pool_, 60u);
  EXPECT_EQ(sink.keys_,
            (std::set<std::string>{"mode", "simd", "pool", "k", "excluded",
                                   "table_build_ns", "sweep_ns",
                                   "reused_columns"}));
}

}  // namespace
}  // namespace hpb::core
