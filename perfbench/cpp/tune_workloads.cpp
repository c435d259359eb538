// tune_stream: HiPerBOt in-process on the full ~2^33.9 systolic GEMM design
// space (apps::SystolicObjective), swept as one CandidateStream pass per
// suggest with nothing materialized, one thread, no service or journal code
// on the path. Candidate generation and validity filtering dominate.
//
// A run repeats tuning loops (200 evaluations, batch 1) until its time is
// up, cycling over kTunerSeeds tuner seeds derived from the run's seed; the
// untraced loops cover every seed at least once. Every loop must reproduce
// the suggestion sequence and best objective of the run's first loop with
// the same tuner seed bit for bit. Untraced loops also time a group of
// set-ups (space + tuner constructor) every kSetupEvery evaluations, so
// set-up time is sampled across the whole run, as the machine's speed
// changes.
// With --trace 1 the second half of the time runs loops through the
// ProbedTuner decorator, and every streamed sweep is replayed afterwards as
// a shadow CandidateStream::pass_candidates call on the same (space, seed,
// pass).
#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <memory>

#include "apps/systolic.hpp"
#include "common/rng.hpp"
#include "core/hiperbot.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "space/candidate_stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kEvals = 200;
constexpr std::size_t kBatch = 1;
/// Tuner seeds per run. best_y is the mean of their bests, which keeps it
/// from hanging on one seed's luck.
constexpr std::size_t kTunerSeeds = 8;
/// Set-ups per timed group. One set-up takes tens of microseconds, too
/// short to time alone on a shared machine.
constexpr std::size_t kSetupGroup = 64;
constexpr std::size_t kSetupEvery = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::unique_ptr<hpb::core::HiPerBOt> make_tuner(
    const hpb::apps::SystolicObjective& obj, std::uint64_t seed) {
  return std::make_unique<hpb::core::HiPerBOt>(
      obj.space_ptr(), hpb::core::HiPerBOtConfig{}, seed);
}

/// Seconds per set-up, averaged over one group.
double time_setup_group(std::uint64_t seed) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kSetupGroup; ++i) {
    const hpb::apps::SystolicObjective obj(
        hpb::apps::SystolicWorkload::full());
    const auto tuner = make_tuner(obj, seed);
  }
  return seconds_since(t0) / static_cast<double>(kSetupGroup);
}

struct Loop {
  std::vector<double> suggest_ms;
  std::vector<double> observe_ms;
  double wall_s = 0.0;
  std::size_t evals = 0;
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t hash = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One tuning loop. With `setups` set, a set-up group is timed (outside
/// the timed calls) every kSetupEvery evaluations.
Loop run_loop(hpb::core::Tuner& tuner, const hpb::apps::SystolicObjective& obj,
              std::uint64_t seed, std::vector<double>* setups) {
  Loop loop;
  SequenceHash hash;
  std::vector<hpb::core::Observation> observations;
  auto start = Clock::now();
  while (loop.evals < kEvals) {
    const auto t0 = Clock::now();
    std::vector<hpb::space::Configuration> batch = tuner.suggest_batch(kBatch);
    const auto t1 = Clock::now();
    ++loop.attempted;
    if (batch.empty()) {
      ++loop.failed;
      break;
    }
    observations.clear();
    for (hpb::space::Configuration& c : batch) {
      for (const double v : c.values()) {
        hash.add(v);
      }
      const double y = obj.cost(c);
      loop.best = std::min(loop.best, y);
      observations.push_back({std::move(c), y});
    }
    const auto t2 = Clock::now();
    tuner.observe_batch(observations);
    const auto t3 = Clock::now();
    loop.suggest_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    loop.observe_ms.push_back(
        std::chrono::duration<double, std::milli>(t3 - t2).count());
    loop.evals += observations.size();
    if (setups != nullptr && loop.evals % kSetupEvery == 0) {
      const auto paused = Clock::now();
      setups->push_back(time_setup_group(seed));
      start += Clock::now() - paused;
    }
  }
  loop.wall_s = seconds_since(start);
  loop.hash = hash.value();
  return loop;
}

void check_loop(const Loop& loop, const Loop& first, Result& checks) {
  if (loop.evals != kEvals) {
    checks.fail_check("tuning loop stopped at " + std::to_string(loop.evals) +
                      " of " + std::to_string(kEvals) + " evaluations");
  }
  if (loop.hash != first.hash) {
    checks.fail_check("tuning loop's suggestion sequence differs from the "
                      "run's first loop with the same tuner seed");
  }
  if (loop.best != first.best) {
    checks.fail_check("best " + fmt(loop.best, 17) + " != " +
                      fmt(first.best, 17) + " at the same tuner seed");
  }
}

/// A streamed sweep seen by the probes, with the tuner seed it ran under.
struct SeededCall {
  std::uint64_t seed = 0;
  TunerCall call;
};

void tune_layers(const std::vector<SeededCall>& seeded,
                 const std::vector<double>& client_suggest_ms,
                 const std::vector<double>& client_observe_ms,
                 const hpb::apps::SystolicObjective& obj, Layers& L) {
  std::vector<TunerCall> calls;
  for (const SeededCall& s : seeded) {
    calls.push_back(s.call);
  }
  fill_tuner_layers(calls, obj.space().num_params(), L);
  std::vector<double> inner_suggest, inner_observe, client_swept;
  std::size_t suggest_index = 0;
  for (const TunerCall& c : calls) {
    if (c.kind == CallKind::kSuggest) {
      inner_suggest.push_back(c.ms());
      if (c.has_sweep && suggest_index < client_suggest_ms.size()) {
        client_swept.push_back(client_suggest_ms[suggest_index]);
      }
      ++suggest_index;
    } else if (c.kind == CallKind::kObserve) {
      inner_observe.push_back(c.ms());
    }
  }
  L.tuner_suggest_ms = median(inner_suggest);
  L.tuner_observe_ms = median(inner_observe);
  L.unattributed_suggest_ms = median(client_swept) - L.fit_ms - L.sweep_ms;
  L.unattributed_observe_ms = median(client_observe_ms) - L.tuner_observe_ms;
  note("layer sum, suggest (swept calls, p50 ms): client=" +
       fmt(median(client_swept)) + " hiperbot.fit=" + fmt(L.fit_ms) +
       " hiperbot.sweep=" + fmt(L.sweep_ms) +
       " unattributed=" + fmt(L.unattributed_suggest_ms));

  // Shadow the tuner's passes to count what they generate.
  std::vector<double> valid_frac, pass_ms, candidates, ns_per;
  for (const SeededCall& s : seeded) {
    const TunerCall& c = s.call;
    if (!c.has_sweep || !c.sweep.streamed) {
      continue;
    }
    const hpb::space::CandidateStream shadow(obj.space_ptr(), s.seed);
    const auto t0 = Clock::now();
    const auto pass = shadow.pass_candidates(c.sweep.pass);
    pass_ms.push_back(seconds_since(t0) * 1e3);
    const auto valid = static_cast<double>(pass.size());
    valid_frac.push_back(valid / static_cast<double>(c.sweep.pass_length));
    candidates.push_back(valid);
    if (valid > 0) {
      ns_per.push_back(static_cast<double>(c.sweep.sweep_ns) / valid);
    }
  }
  L.valid_frac = median(valid_frac);
  L.pass_ms = median(pass_ms);
  L.candidates_per_suggest = median(candidates);
  L.ns_per_candidate = median(ns_per);
  L.sweep_gbps = L.ns_per_candidate > 0.0
                     ? L.bytes_per_candidate / L.ns_per_candidate
                     : 0.0;
}

}  // namespace

Outcome run_tune(const Options& opt, Result& checks) {
  Outcome out;
  std::array<std::uint64_t, kTunerSeeds> seeds{};
  for (std::size_t k = 0; k < kTunerSeeds; ++k) {
    seeds[k] = hpb::hash_combine(opt.seed, k) >> 32;
  }
  const hpb::apps::SystolicObjective obj(hpb::apps::SystolicWorkload::full());
  note("tune_stream: raw " + std::to_string(obj.space().cross_product_size()) +
       " configurations, streamed; " + std::to_string(kEvals) +
       " evals per loop, batch " + std::to_string(kBatch) + ", " +
       std::to_string(kTunerSeeds) + " tuner seeds per run, " +
       std::to_string(kSetupGroup) + " set-ups per timed group");

  std::array<Loop, kTunerSeeds> first;
  std::size_t loops = 0;
  const auto tally = [&](const Loop& loop, std::size_t k) {
    out.attempted += loop.attempted;
    out.failed += loop.failed;
    if (first[k].evals == 0) {
      first[k] = loop;
    }
    check_loop(loop, first[k], checks);
  };
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  // Loops until time is up, and at least `min_loops`.
  const auto more = [&](Clock::time_point t0, std::size_t done,
                        std::size_t min_loops) {
    return checks.correct &&
           (done < min_loops || seconds_since(t0) < measure_s);
  };

  Blocks blocks;
  std::vector<double> setups;
  double wall = 0.0;
  std::size_t evals = 0;
  auto t0 = Clock::now();
  do {
    const std::uint64_t seed = seeds[loops % kTunerSeeds];
    const auto tuner = make_tuner(obj, seed);
    const Loop loop = run_loop(*tuner, obj, seed, &setups);
    tally(loop, loops % kTunerSeeds);
    blocks.add(loop.suggest_ms, loop.observe_ms,
               static_cast<double>(loop.evals) / loop.wall_s);
    wall += loop.wall_s;
    evals += loop.evals;
    ++loops;
  } while (more(t0, loops, kTunerSeeds));

  EndToEnd& e = out.e2e;
  e.setup_s = median(setups);
  e.timing = blocks.summarize();
  double best_sum = 0.0;
  for (const Loop& f : first) {
    best_sum += f.best;
  }
  e.best_y = best_sum / static_cast<double>(kTunerSeeds);
  note("untraced: " + std::to_string(loops) + " loops, " +
       std::to_string(evals) + " evals in " + fmt(wall) + " s; set-up p50 " +
       fmt(e.setup_s * 1e6) + " us over " + std::to_string(setups.size()) +
       " groups");

  if (opt.trace) {
    std::vector<SeededCall> calls;
    Blocks traced;
    std::vector<double> client_suggest, client_observe;
    std::size_t traced_loops = 0;
    t0 = Clock::now();
    do {
      const std::uint64_t seed = seeds[traced_loops % kTunerSeeds];
      CallLog log;
      {
        ProbedTuner tuner(make_tuner(obj, seed));
        ScopedCallLog scope(log);
        const Loop loop = run_loop(tuner, obj, seed, nullptr);
        tally(loop, traced_loops % kTunerSeeds);
        client_suggest.insert(client_suggest.end(), loop.suggest_ms.begin(),
                              loop.suggest_ms.end());
        client_observe.insert(client_observe.end(), loop.observe_ms.begin(),
                              loop.observe_ms.end());
        traced.add(loop.suggest_ms, loop.observe_ms,
                   static_cast<double>(loop.evals) / loop.wall_s);
      }
      for (const TunerCall& c : log.calls) {
        calls.push_back({seed, c});
      }
      ++traced_loops;
    } while (more(t0, traced_loops, 1));
    tune_layers(calls, client_suggest, client_observe, obj, out.layers);
    const double untraced = e.timing.suggest_p50_ms;
    out.layers.overhead_frac =
        (traced.summarize().suggest_p50_ms - untraced) / untraced;
  }
  e.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
