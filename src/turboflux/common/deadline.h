#ifndef TURBOFLUX_COMMON_DEADLINE_H_
#define TURBOFLUX_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace turboflux {

/// A cooperative wall-clock deadline. Long-running operations call
/// Expired() periodically and unwind when it returns true; reading the
/// clock is amortized over kCheckInterval calls so the check is cheap
/// enough for inner loops.
///
/// Thread safety (DESIGN.md §3.9): a single Deadline instance may be
/// polled concurrently from multiple threads (QuerySet's cross-query
/// fan-out shares one deadline across its EvalRouted workers). The
/// amortization counter and the sticky expired bit are atomics with
/// relaxed ordering — expiry is a
/// monotone flag, so the worst case of a relaxed race is one extra clock
/// read. This type is intentionally lock-free rather than Mutex-guarded:
/// Expired() sits in the engine's innermost search loops. Copying is not
/// atomic (when_/infinite_ are plain fields); copy-from a shared instance
/// is safe while others poll it, but assign-to a Deadline only before
/// handing it to other threads (test_sync_stress.cc exercises both under
/// TSan).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// A deadline that never expires.
  Deadline() : when_(Clock::time_point::max()), infinite_(true) {}

  // Copies reset the amortization counter so the copy's *first* Expired()
  // call reads the clock: a near-expired deadline copied into a fresh
  // operation must not defer its first clock read by up to kCheckInterval
  // calls (the copy inherits none of the original's polling history).
  Deadline(const Deadline& other)
      : when_(other.when_),
        infinite_(other.infinite_),
        expired_(other.expired_.load(std::memory_order_relaxed)),
        calls_(kCheckInterval - 1) {}

  Deadline& operator=(const Deadline& other) {
    when_ = other.when_;
    infinite_ = other.infinite_;
    expired_.store(other.expired_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    calls_.store(kCheckInterval - 1, std::memory_order_relaxed);
    return *this;
  }

  static Deadline Infinite() { return Deadline(); }

  static Deadline After(std::chrono::milliseconds budget) {
    Deadline d;
    d.infinite_ = false;
    d.when_ = Clock::now() + budget;
    return d;
  }

  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  /// True once the deadline has passed. Only actually reads the clock every
  /// kCheckInterval calls; once expired, stays expired.
  [[nodiscard]] bool Expired() {
    if (infinite_) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    uint32_t n = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % kCheckInterval != 0) return false;
    if (Clock::now() >= when_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Reads the clock immediately (no amortization).
  [[nodiscard]] bool ExpiredNow() {
    if (infinite_) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (Clock::now() >= when_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Wall-clock time left before expiry, saturating at zero. Infinite
  /// deadlines report milliseconds::max(). Reads the clock (no
  /// amortization); intended for progress reporting and for callers
  /// deciding whether a recovery attempt is still worth starting.
  [[nodiscard]] std::chrono::milliseconds Remaining() const {
    if (infinite_) return std::chrono::milliseconds::max();
    if (expired_.load(std::memory_order_relaxed)) {
      return std::chrono::milliseconds(0);
    }
    Clock::time_point now = Clock::now();
    if (now >= when_) return std::chrono::milliseconds(0);
    return std::chrono::duration_cast<std::chrono::milliseconds>(when_ - now);
  }

  bool infinite() const { return infinite_; }

 private:
  static constexpr uint32_t kCheckInterval = 256;

  Clock::time_point when_;
  bool infinite_ = false;
  std::atomic<bool> expired_{false};
  std::atomic<uint32_t> calls_{0};
};

/// A simple wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Deadline::Clock::now()) {}

  void Reset() { start_ = Deadline::Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Deadline::Clock::now() - start_)
        .count();
  }

 private:
  Deadline::Clock::time_point start_;
};

}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_DEADLINE_H_
