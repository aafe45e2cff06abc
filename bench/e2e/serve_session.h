#ifndef TURBOFLUX_BENCH_E2E_SERVE_SESSION_H_
#define TURBOFLUX_BENCH_E2E_SERVE_SESSION_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "turboflux/common/status.h"
#include "turboflux/graph/update_stream.h"

namespace turboflux {
namespace e2e {

/// One tfx_serve child process. The destructor SIGKILLs and reaps a child
/// that is still running, so no exit path leaves a process behind.
class ServeProcess {
 public:
  ServeProcess() = default;
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Spawns `argv` and blocks until the child prints its "listening" line,
  /// exits, or `timeout_s` passes. setup_seconds() is spawn → listening.
  [[nodiscard]] Status Launch(const std::vector<std::string>& argv,
                              double timeout_s);

  /// Sends `sig` and waits up to `timeout_s` for the exit. Returns the
  /// exit code, or -1 when the child died of a signal or had to be killed.
  int Stop(int sig, double timeout_s);

  /// Sends SIGKILL without waiting (the chaos hook of the death test).
  void Kill();

  /// False once the child has exited (reaps it).
  bool Running();

  /// VmHWM of the child in MB; 0 when unreadable.
  double PeakRssMb() const;

  double setup_seconds() const { return setup_seconds_; }
  uint16_t port() const { return port_; }
  /// Everything the child wrote to stderr so far (for error reports).
  const std::string& log() const { return log_; }

 private:
  void DrainLog(int timeout_ms);
  bool CatchesSigterm() const;

  pid_t pid_ = -1;
  int log_fd_ = -1;
  int exit_code_ = -1;
  uint16_t port_ = 0;
  double setup_seconds_ = 0;
  std::string log_;
};

/// What the load generator sends and how (README "Phases").
struct LoadPlan {
  const UpdateStream* stream = nullptr;
  /// Phase 1 (open loop): ops [0, n1) are due at start + due_us[i].
  size_t n1 = 0;
  std::vector<uint64_t> due_us;
  size_t open_frame = 64;  ///< max ops per phase-1 frame
  /// Phase 2 (closed loop): the remaining ops back-to-back in frames of
  /// closed_frame ops until phase2_seconds pass or the stream ends.
  double phase2_seconds = 1;
  size_t closed_frame = 64;
  size_t producers = 2;
  std::string match_log_path;  ///< the server's log, to check phase 3
  bool record_frames = false;  ///< keep the submitted frames (tracing)
  bool kill_server_in_phase2 = false;
};

/// One HEALTH reply, stamped when it arrived.
struct HealthSample {
  int64_t t_ns = 0;
  uint64_t committed = 0;
  uint64_t depth = 0;
  uint8_t tier = 0;
};

/// Everything the generator observed. Times are steady-clock nanoseconds.
struct LoadResult {
  std::vector<double> ping_us;
  /// Phase 1, per stream index i < n1.
  std::vector<int64_t> due_ns;
  std::vector<int64_t> ack_ns;  ///< 0 when the op was not acked
  std::vector<double> late_ms;  ///< per phase-1 frame
  size_t phase1_frames = 0;
  int64_t phase2_start_ns = 0;
  int64_t phase2_end_ns = 0;  ///< when the last producer stopped sending
  size_t n2 = 0;  ///< phase-2 ops acked
  std::vector<HealthSample> polls;
  std::vector<double> read_ms;
  /// Per producer: the stream indices it owns, in send order. Channel
  /// p + 1 sends them with seq 1, 2, ...
  std::vector<std::vector<size_t>> owned;
  std::vector<std::string> frames;  ///< with record_frames
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
};

/// Runs the ping warm-up and phases 1-2 against `server`, returning once
/// HEALTH shows every acked op committed. The poller runs on the calling
/// thread; each producer has its own thread and connection. Returns
/// non-OK when any op failed or the server stopped answering; `out` then
/// still holds the counts.
[[nodiscard]] Status RunLoad(const LoadPlan& plan, ServeProcess& server,
                             LoadResult* out);

/// Phase 3: 8 MATCHES(start, 4096) pages at evenly spaced cursors of the
/// committed log, each checked against the same records read from the file.
[[nodiscard]] Status ReadPages(const LoadPlan& plan, ServeProcess& server,
                               LoadResult* out);

}  // namespace e2e
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_E2E_SERVE_SESSION_H_
