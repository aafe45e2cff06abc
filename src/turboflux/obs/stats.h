#ifndef TURBOFLUX_OBS_STATS_H_
#define TURBOFLUX_OBS_STATS_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "turboflux/common/synchronization.h"
#include "turboflux/common/thread_annotations.h"

// Low-overhead observability primitives (DESIGN.md §3.8).
//
// Two implementations of each metric type exist unconditionally:
//
//  * Enabled* — a real counter/gauge/log-bucketed histogram. A Counter
//    increment is a single unsynchronized word add; metrics are owned by
//    exactly one engine instance, so no atomics are needed on the hot
//    path.
//  * Noop*    — an empty type whose every member compiles away. The
//    disabled build's instrumentation sites cost zero bytes and zero
//    cycles; tests static_assert this (test_stats_overhead.cc).
//
// The build-wide aliases Counter/Gauge/Histogram select between them via
// TFX_STATS_ENABLED (set by the TFX_STATS CMake option, default ON). Both
// variants are always *defined* so the zero-cost properties of the Noop
// types are testable from any build.
//
// HistogramData — the raw bucket array — is independent of the build flag:
// StatsSnapshot uses it for export, and the harness records run-level
// latencies into it directly (gated by a runtime flag, not the compile
// flag, since the runner loop is not an engine hot path).

#ifndef TFX_STATS_ENABLED
#define TFX_STATS_ENABLED 1
#endif

namespace turboflux {
namespace obs {

inline constexpr bool kStatsCompiled = TFX_STATS_ENABLED != 0;

/// Log2-bucketed distribution of uint64 samples (latencies in nanoseconds
/// by convention; any nonnegative quantity works). Bucket 0 holds the
/// value 0; bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover the full
/// uint64 range, so Record never clamps.
struct HistogramData {
  static constexpr size_t kNumBuckets = 65;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // valid only when count > 0
  uint64_t max = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  static constexpr size_t BucketIndex(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

  /// Largest value bucket i can hold.
  static constexpr uint64_t BucketUpperBound(size_t i) {
    if (i == 0) return 0;
    if (i >= 64) return ~uint64_t{0};
    return (uint64_t{1} << i) - 1;
  }

  void Record(uint64_t value) {
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
    ++buckets[BucketIndex(value)];
  }

  /// Records a duration in the nanosecond convention.
  void RecordSeconds(double seconds) {
    Record(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }

  void Merge(const HistogramData& other) {
    if (other.count == 0) return;
    if (count == 0 || other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
    for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at quantile p in [0, 1]: the upper bound of the bucket holding
  /// the rank-ceil(p*count) sample, clamped to the observed [min, max].
  /// 0 when empty. Bucketing makes this an over-estimate by at most 2x.
  uint64_t Percentile(double p) const;
};

class EnabledCounter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class EnabledGauge {
 public:
  void Set(uint64_t v) { value_ = v; }
  void SetMax(uint64_t v) {
    if (v > value_) value_ = v;
  }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class EnabledHistogram {
 public:
  void Record(uint64_t value) { data_.Record(value); }
  void RecordSeconds(double seconds) { data_.RecordSeconds(seconds); }
  const HistogramData& data() const { return data_; }
  void Reset() { data_ = HistogramData{}; }

 private:
  HistogramData data_;
};

class NoopCounter {
 public:
  constexpr void Inc(uint64_t = 1) {}
  constexpr uint64_t value() const { return 0; }
  constexpr void Reset() {}
};

class NoopGauge {
 public:
  constexpr void Set(uint64_t) {}
  constexpr void SetMax(uint64_t) {}
  constexpr uint64_t value() const { return 0; }
  constexpr void Reset() {}
};

class NoopHistogram {
 public:
  constexpr void Record(uint64_t) {}
  constexpr void RecordSeconds(double) {}
  const HistogramData& data() const { return kEmpty; }
  constexpr void Reset() {}

 private:
  static const HistogramData kEmpty;  // shared all-zero data
};

#if TFX_STATS_ENABLED
using Counter = EnabledCounter;
using Gauge = EnabledGauge;
using Histogram = EnabledHistogram;
#else
using Counter = NoopCounter;
using Gauge = NoopGauge;
using Histogram = NoopHistogram;
#endif

/// A point-in-time export of named metrics: flat (name, value) pairs for
/// counters/gauges and (name, HistogramData) pairs for distributions.
/// Names are dotted scopes ("engine.dcg.transitions"). Snapshots are plain
/// data — merging, JSON/CSV rendering, and lookups all work the same in
/// stats-disabled builds (values are then zero).
struct StatsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  void AddCounter(std::string name, uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  void AddHistogram(std::string name, const HistogramData& h) {
    histograms.emplace_back(std::move(name), h);
  }

  bool Has(std::string_view name) const;
  /// Counter/gauge value by exact name; 0 when absent.
  uint64_t Value(std::string_view name) const;
  /// Histogram by exact name; nullptr when absent.
  const HistogramData* FindHistogram(std::string_view name) const;

  /// Sums counters and bucket-merges histograms by name; names only in
  /// `other` are appended.
  void MergeFrom(const StatsSnapshot& other);

  /// {"counters": {...}, "histograms": {name: {count, sum, min, max, mean,
  /// p50, p95, p99}}} — one self-contained JSON object.
  std::string ToJson() const;
  /// "metric,value" rows; histograms are exploded into name.count,
  /// name.p50, name.p95, name.p99, name.max, name.mean rows.
  std::string ToCsv() const;
};

/// Name-addressed metric store for harness-level metrics that are not on
/// an engine hot path (engines use the typed structs in engine_stats.h
/// instead — no string lookups per op). References returned by the
/// accessors stay valid for the registry's lifetime. When disabled at
/// runtime, accessors hand out shared scratch metrics whose contents are
/// meaningless and Snapshot() is empty.
///
/// Thread safety (DESIGN.md §3.9): registration, lookup, Snapshot, and
/// Reset may be called concurrently — mu_ guards the maps and the enabled
/// flag. Mutating a *metric* through a returned reference is NOT
/// synchronized by the registry (a Counter increment stays a bare word
/// add); by convention each metric is mutated from a single thread, and
/// Snapshot/Reset only run at quiescent points (batch boundaries).
class StatsRegistry {
 public:
  explicit StatsRegistry(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return enabled_;
  }
  void set_enabled(bool enabled) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    enabled_ = enabled;
  }

  Counter& GetCounter(std::string_view scope, std::string_view name)
      EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view scope, std::string_view name)
      EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view scope, std::string_view name)
      EXCLUDES(mu_);

  /// All registered metrics as "scope.name" entries, in name order.
  StatsSnapshot Snapshot() const EXCLUDES(mu_);

  void Reset() EXCLUDES(mu_);

 private:
  static std::string Key(std::string_view scope, std::string_view name);

  mutable Mutex mu_;
  bool enabled_ GUARDED_BY(mu_);
  // std::map: node-based, so references survive later insertions and can
  // safely escape the registration lock.
  std::map<std::string, Counter, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_ GUARDED_BY(mu_);
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  Histogram scratch_histogram_;
};

}  // namespace obs
}  // namespace turboflux

#endif  // TURBOFLUX_OBS_STATS_H_
