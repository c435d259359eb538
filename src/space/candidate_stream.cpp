#include "space/candidate_stream.hpp"

#include <iterator>
#include <unordered_set>

#include "common/rng.hpp"

namespace hpb::space {

CandidateStream::CandidateStream(SpacePtr space, std::uint64_t seed,
                                 StreamConfig config)
    : space_(std::move(space)), seed_(seed), config_(config) {
  HPB_REQUIRE(space_ != nullptr, "CandidateStream: null space");
  HPB_REQUIRE(space_->is_finite(),
              "CandidateStream: space must be finite (all-discrete)");
  HPB_REQUIRE(config_.chunk > 0, "CandidateStream: chunk must be positive");
  HPB_REQUIRE(config_.pass_raw_budget > 0,
              "CandidateStream: pass_raw_budget must be positive");
  raw_size_ = space_->cross_product_size();  // throws on 2^64 overflow
  exhaustive_ = raw_size_ <= config_.max_exhaustive;
  pass_length_ =
      exhaustive_ ? raw_size_ : std::min(raw_size_, config_.pass_raw_budget);
  num_chunks_ = static_cast<std::size_t>(
      (pass_length_ + config_.chunk - 1) / config_.chunk);
  // Smallest balanced Feistel domain 2^(2*half_bits_) covering raw_size_.
  half_bits_ = 1;
  while (half_bits_ < 32 && (1ULL << (2 * half_bits_)) < raw_size_) {
    ++half_bits_;
  }
}

CandidateStream::FeistelKeys CandidateStream::keys_for(
    std::uint64_t pass) const {
  const std::uint64_t key = hash_combine(seed_, pass);
  FeistelKeys keys;
  for (std::uint64_t r = 0; r < 4; ++r) {
    keys.round[r] = hash_combine(key, r + 1);
  }
  return keys;
}

std::uint64_t CandidateStream::feistel_once(const FeistelKeys& keys,
                                            std::uint64_t v) const noexcept {
  const std::uint64_t mask = (1ULL << half_bits_) - 1;
  std::uint64_t left = v >> half_bits_;
  std::uint64_t right = v & mask;
  for (const std::uint64_t round_key : keys.round) {
    const std::uint64_t mixed = splitmix64(round_key ^ right) & mask;
    const std::uint64_t next = left ^ mixed;
    left = right;
    right = next;
  }
  return (left << half_bits_) | right;
}

std::uint64_t CandidateStream::permute(const FeistelKeys& keys,
                                       std::uint64_t raw) const noexcept {
  if (exhaustive_) {
    return raw;
  }
  // Cycle-walk: the Feistel network permutes [0, 2^(2*half_bits_)); re-apply
  // until the image lands below raw_size_. Since the domain is < 4x the
  // range, this needs ~1.3 applications on average and always terminates
  // (it walks a cycle of a permutation that contains `raw`).
  std::uint64_t v = raw;
  do {
    v = feistel_once(keys, v);
  } while (v >= raw_size_);
  return v;
}

void CandidateStream::chunk_candidates(std::uint64_t pass, std::size_t chunk,
                                       std::vector<Candidate>& out) const {
  HPB_REQUIRE(chunk < num_chunks_, "chunk_candidates: chunk out of range");
  out.clear();
  const FeistelKeys keys = keys_for(pass);
  const std::uint64_t begin = static_cast<std::uint64_t>(chunk) * config_.chunk;
  const std::uint64_t end = std::min<std::uint64_t>(
      begin + config_.chunk, pass_length_);
  for (std::uint64_t raw = begin; raw < end; ++raw) {
    const std::uint64_t ordinal = permute(keys, raw);
    Configuration c = space_->configuration_at(ordinal);
    if (space_->satisfies(c)) {
      out.push_back(Candidate{std::move(c), raw, ordinal});
    }
  }
}

std::vector<CandidateStream::Candidate> CandidateStream::pass_candidates(
    std::uint64_t pass) const {
  std::vector<Candidate> out;
  std::vector<Candidate> chunk;
  for (std::size_t i = 0; i < num_chunks_; ++i) {
    chunk_candidates(pass, i, chunk);
    std::move(chunk.begin(), chunk.end(), std::back_inserter(out));
  }
  return out;
}

std::vector<Configuration> CandidateStream::sample_pool(
    std::size_t k, std::uint64_t max_passes) const {
  HPB_REQUIRE(k > 0, "sample_pool: k must be positive");
  std::vector<Configuration> out;
  out.reserve(k);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(k * 2);
  const std::uint64_t passes = exhaustive_ ? 1 : max_passes;
  std::vector<Candidate> chunk;
  for (std::uint64_t pass = 0; pass < passes && out.size() < k; ++pass) {
    for (std::size_t ci = 0; ci < num_chunks_ && out.size() < k; ++ci) {
      chunk_candidates(pass, ci, chunk);
      for (auto& candidate : chunk) {
        if (seen.insert(candidate.ordinal).second) {
          out.push_back(std::move(candidate.config));
          if (out.size() == k) {
            break;
          }
        }
      }
    }
  }
  HPB_REQUIRE(out.size() == k,
              "sample_pool: space yielded only " +
                  std::to_string(out.size()) + " of " + std::to_string(k) +
                  " distinct valid configurations");
  return out;
}

}  // namespace hpb::space
