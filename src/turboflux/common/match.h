#ifndef TURBOFLUX_COMMON_MATCH_H_
#define TURBOFLUX_COMMON_MATCH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "turboflux/common/types.h"

namespace turboflux {

/// A (possibly partial) homomorphism m : V(q) -> V(g). Indexed by query
/// vertex id; unmapped query vertices hold kNullVertex.
using Mapping = std::vector<VertexId>;

/// Returns true iff `v` already appears as the image of some query vertex.
/// Used for the injectivity check under subgraph-isomorphism semantics.
bool MappingContains(const Mapping& m, VertexId v);

std::string MappingToString(const Mapping& m);

/// Stable 64-bit hash of a complete mapping.
uint64_t HashMapping(const Mapping& m);

/// Receives positive/negative matches as they are discovered. A positive
/// match is an element of M(g_i, q) - M(g_{i-1}, q); a negative match is an
/// element of M(g_{i-1}, q) - M(g_i, q) (Definition 3).
class MatchSink {
 public:
  virtual ~MatchSink() = default;

  /// Called once per reported match. `m` is only valid for the duration of
  /// the call; implementations that retain it must copy.
  virtual void OnMatch(bool positive, const Mapping& m) = 0;
};

/// Receives an engine's active-vertex flips. A data vertex is active when
/// the engine's intermediate state could start work at it: an update
/// (v, l, v') can change that state or report a match only if v or v' is
/// active. For TurboFlux that is a DCG in-edge at the vertex (the first
/// test of Algorithms 5 and 8, Transition 0 Case 2). Owners that serve
/// many engines (multi::QuerySet) index these flips to skip, per update,
/// every engine whose endpoints are both inactive.
class ActiveVertexListener {
 public:
  virtual ~ActiveVertexListener() = default;

  /// Called when `v` turns active (`active`) or inactive.
  virtual void OnActiveChange(VertexId v, bool active) = 0;
};

/// Drops every match; used when an engine replays updates purely for
/// their state effect.
class DiscardSink : public MatchSink {
 public:
  void OnMatch(bool, const Mapping&) override {}
};

/// Counts matches without retaining them.
class CountingSink : public MatchSink {
 public:
  void OnMatch(bool positive, const Mapping&) override {
    if (positive) {
      ++positive_;
    } else {
      ++negative_;
    }
  }

  uint64_t positive() const { return positive_; }
  uint64_t negative() const { return negative_; }
  uint64_t total() const { return positive_ + negative_; }

  void Reset() { positive_ = negative_ = 0; }

 private:
  uint64_t positive_ = 0;
  uint64_t negative_ = 0;
};

/// Retains all matches; used by tests and examples. Provides a multiset
/// view so engines can be compared irrespective of report order.
class CollectingSink : public MatchSink {
 public:
  struct Record {
    bool positive;
    Mapping mapping;
  };

  void OnMatch(bool positive, const Mapping& m) override {
    records_.push_back({positive, m});
  }

  const std::vector<Record>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

  /// Multiset of (sign, mapping) as counts keyed by a canonical string.
  /// Two engines report the same matches iff their multisets are equal.
  std::unordered_map<std::string, int> ToMultiset() const;

 private:
  std::vector<Record> records_;
};

/// Fans a match out to two sinks (e.g., counting plus collecting).
class TeeSink : public MatchSink {
 public:
  TeeSink(MatchSink* a, MatchSink* b) : a_(a), b_(b) {}

  void OnMatch(bool positive, const Mapping& m) override {
    a_->OnMatch(positive, m);
    b_->OnMatch(positive, m);
  }

 private:
  MatchSink* a_;
  MatchSink* b_;
};

}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_MATCH_H_
