#ifndef TURBOFLUX_BENCH_E2E_MEASURE_H_
#define TURBOFLUX_BENCH_E2E_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace turboflux {
namespace e2e {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One reported metric: a name from BENCHMARK.json, a value and its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The sample at rank floor(p * n) of `v` (0 when empty).
double Quantile(std::vector<double> v, double p);

/// A field of /proc/<pid>/status ("VmHWM", "SigCgt"); "" when absent.
std::string ProcStatusField(int pid, const char* field);

/// VmHWM of process `pid` in MB; 0 when unreadable.
double PeakRssMb(int pid);

/// Returns this process's freed heap to the system and restarts its VmHWM
/// at the current resident size, so a later PeakRssMb(getpid()) measures
/// what ran in between. False when the kernel refuses.
bool RestartPeakRss();

/// Spans around the calls into each layer, kept in memory and written
/// once as a Chrome trace. Single-threaded: spans nest strictly.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;    ///< index of the enclosing span, -1 at the root
    uint64_t request;  ///< op index, frame or query number
  };

  void Begin(const char* name, uint64_t request);
  void End();

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part its child spans cover.
  std::vector<int64_t> SelfNs() const;

  /// Writes the first 20,000 spans of each name: a span for every op of a
  /// 300k-op stream would make a file too large to open, and the metrics
  /// use every span anyway.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer) {
    tracer_.Begin(name, request);
  }
  ~ScopedSpan() { tracer_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// What recording one span costs the tracer itself, in nanoseconds, for
/// trace.overhead_frac.
double SpanCostNs();

}  // namespace e2e
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_E2E_MEASURE_H_
