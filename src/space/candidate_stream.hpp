// CandidateStream: deterministic, chunked generation of valid configurations
// from a finite ParameterSpace, without materializing the cross product.
//
// The stream walks *passes*. Within a pass, raw indices 0..pass_length-1 are
// mapped through a bijection over [0, cross_product_size) — the identity for
// small spaces (so a pass reproduces enumerate() in ordinal order, bitwise),
// a seeded 4-round Feistel permutation with cycle-walking for huge ones (so
// no ordinal repeats within a pass). Each raw index decodes to a
// configuration which is emitted only if ParameterSpace::satisfies()
// accepts it: every streamed candidate is canonical and constraint-clean by
// construction.
//
// Determinism contract: chunk_candidates(pass, chunk) is a pure function of
// (space, seed, pass, chunk) with a fixed chunk size.
#pragma once

#include <cstdint>
#include <vector>

#include "space/parameter_space.hpp"

namespace hpb::space {

/// Generation knobs. With the defaults, a pass over a flat unconstrained
/// space of at most max_exhaustive points is enumerate() in ordinal order,
/// so HiPerBOt's streamed sweep there is bitwise-identical to its pooled
/// one.
struct StreamConfig {
  /// Raw indices per chunk (the sweep's top-k is independent of it).
  std::size_t chunk = 8192;

  /// Spaces with cross product <= this use the identity permutation and a
  /// full-enumeration pass (streaming == enumerate()); larger spaces sample
  /// pass_raw_budget raw points per pass through the Feistel permutation.
  std::uint64_t max_exhaustive = 1ULL << 20;

  /// Raw indices visited per sampled pass on huge spaces. The number of
  /// *valid* candidates per pass is this times the space's acceptance rate.
  std::uint64_t pass_raw_budget = 1ULL << 16;
};

class CandidateStream {
 public:
  /// One streamed candidate: the decoded configuration, its raw position
  /// within the pass (candidates of a pass ascend in it), and its stable
  /// cross-product ordinal (the dedup identity).
  struct Candidate {
    Configuration config;
    std::uint64_t pass_index = 0;
    std::uint64_t ordinal = 0;
  };

  /// The space must be finite and its cross product must fit in 64 bits
  /// (cross_product_size() throws SpaceTooLargeError otherwise).
  CandidateStream(SpacePtr space, std::uint64_t seed, StreamConfig config = {});

  [[nodiscard]] const ParameterSpace& space() const noexcept { return *space_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// True when passes cover the whole cross product via the identity
  /// permutation (pass == enumerate() in ordinal order).
  [[nodiscard]] bool exhaustive() const noexcept { return exhaustive_; }

  /// Unconstrained cross-product size of the space.
  [[nodiscard]] std::uint64_t raw_size() const noexcept { return raw_size_; }

  /// Raw indices visited per pass (before validity filtering).
  [[nodiscard]] std::uint64_t pass_length() const noexcept {
    return pass_length_;
  }

  /// Number of fixed-size chunks a pass is split into.
  [[nodiscard]] std::size_t num_chunks() const noexcept { return num_chunks_; }

  /// Valid candidates of one chunk of one pass, in raw-index order.
  /// Pure in (space, seed, pass, chunk).
  void chunk_candidates(std::uint64_t pass, std::size_t chunk,
                        std::vector<Candidate>& out) const;

  /// All valid candidates of a pass, in raw-index order (its chunks
  /// concatenated in chunk order).
  [[nodiscard]] std::vector<Candidate> pass_candidates(
      std::uint64_t pass) const;

  /// First k distinct valid configurations drawn from passes 0, 1, ... —
  /// a seeded, deterministic stand-in pool for pool-bound tuners on spaces
  /// too large to enumerate. Dedups by ordinal across passes; throws if
  /// `max_passes` passes cannot produce k distinct candidates.
  [[nodiscard]] std::vector<Configuration> sample_pool(
      std::size_t k, std::uint64_t max_passes = 64) const;

 private:
  struct FeistelKeys {
    std::uint64_t round[4] = {0, 0, 0, 0};
  };

  [[nodiscard]] FeistelKeys keys_for(std::uint64_t pass) const;
  [[nodiscard]] std::uint64_t feistel_once(const FeistelKeys& keys,
                                           std::uint64_t v) const noexcept;
  /// Bijection over [0, raw_size): identity when exhaustive, otherwise the
  /// Feistel permutation cycle-walked back into range.
  [[nodiscard]] std::uint64_t permute(const FeistelKeys& keys,
                                      std::uint64_t raw) const noexcept;

  SpacePtr space_;
  std::uint64_t seed_ = 0;
  StreamConfig config_;
  std::uint64_t raw_size_ = 0;
  bool exhaustive_ = false;
  std::uint64_t pass_length_ = 0;
  std::size_t num_chunks_ = 0;
  unsigned half_bits_ = 0;  // Feistel half-width; domain is 2^(2*half_bits_)
};

}  // namespace hpb::space
