#ifndef TURBOFLUX_HARNESS_FAULT_INJECTION_H_
#define TURBOFLUX_HARNESS_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace turboflux {

/// Declarative description of the single fault a test run should inject.
/// All triggers are one-shot and independently optional; a default plan
/// injects nothing. Counters are 1-based ("fail the Nth"); 0 disables.
struct FaultPlan {
  /// Fail the Nth update op applied through the engine. The engine
  /// simulates a crash mid-op by swapping in an already-expired deadline,
  /// so the op is abandoned at a genuine partial-progress point.
  uint64_t fail_at_op = 0;

  /// Bit-flip byte K of a snapshot before restoring it (applied by the
  /// test via CorruptSnapshot, not by the engine). SIZE_MAX disables.
  size_t corrupt_snapshot_byte = SIZE_MAX;

  // --- Service-level faults (src/turboflux/serve/, DESIGN.md §3.12).
  // Polled by the ingestion service's durability and consumer paths; each
  // is one-shot like the engine-level triggers above.

  /// Tear the Nth WAL record append: only a prefix of the record's bytes
  /// reaches the file and the server dies mid-write (the torn tail must be
  /// discarded by the next recovery's journal load).
  uint64_t wal_torn_at_record = 0;

  /// Tear the Nth match-log commit: the commit block is cut short of its
  /// COMMIT marker and the server dies — recovery must truncate back to
  /// the previous marker and regenerate the lost matches by replay.
  uint64_t matchlog_torn_at_commit = 0;

  /// Kill the server during the Nth checkpoint, after the temp snapshot is
  /// written but before the atomic rename commits it.
  uint64_t die_before_snapshot_rename = 0;

  /// Kill the server during the Nth checkpoint, immediately after the
  /// rename (snapshot is newer than everything that follows it).
  uint64_t die_after_snapshot_rename = 0;

  /// Checkpoint-timer race: make the timer "fire" while the consumer is
  /// mid-way through its Nth drained batch, forcing a commit at an
  /// arbitrary point between journal append and sink flush.
  uint64_t force_checkpoint_at_batch = 0;

  /// Slow-consumer stall: the ingest loop sleeps `stall_ms` before
  /// processing its Nth drained batch (backpressure must absorb it).
  uint64_t stall_consumer_at_batch = 0;
  uint32_t stall_ms = 50;

  /// TCP tests: the client tears down its connection after sending only a
  /// prefix of the Nth frame (server must discard the partial frame).
  uint64_t drop_connection_at_frame = 0;
};

/// Thread-safe one-shot trigger shared between a test harness and the
/// engine under test. The engine polls ShouldFailOp at its injection
/// point; each trigger fires at most once per injector.
///
/// Lock-free by design (DESIGN.md §3.9): the triggers are polled on the
/// op hot path and from the server's and clients' threads, so the
/// counters are relaxed atomics and `plan_` is immutable after
/// construction — there is no guarded state, hence no Mutex. Re-arming
/// means constructing a fresh injector.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Called once per applied update op; true on the op the plan marks.
  [[nodiscard]] bool ShouldFailOp() {
    if (plan_.fail_at_op == 0) return false;
    return ops_seen_.fetch_add(1, std::memory_order_relaxed) + 1 ==
           plan_.fail_at_op;
  }

  // --- Service-level triggers (one-shot, same relaxed-counter scheme) ---

  /// Called once per WAL record about to be appended.
  [[nodiscard]] bool ShouldTearWalRecord() {
    return Trips(wal_records_seen_, plan_.wal_torn_at_record);
  }

  /// Called once per match-log commit block about to be written.
  [[nodiscard]] bool ShouldTearMatchLogCommit() {
    return Trips(matchlog_commits_seen_, plan_.matchlog_torn_at_commit);
  }

  /// Called once per server checkpoint, before the snapshot rename.
  [[nodiscard]] bool ShouldDieBeforeSnapshotRename() {
    return Trips(pre_rename_seen_, plan_.die_before_snapshot_rename);
  }

  /// Called once per server checkpoint, right after the snapshot rename.
  [[nodiscard]] bool ShouldDieAfterSnapshotRename() {
    return Trips(post_rename_seen_, plan_.die_after_snapshot_rename);
  }

  /// Called once per drained consumer batch; true forces the checkpoint
  /// timer to fire mid-batch.
  [[nodiscard]] bool ShouldForceCheckpoint() {
    return Trips(batches_seen_ckpt_, plan_.force_checkpoint_at_batch);
  }

  /// Called once per drained consumer batch; true asks the consumer to
  /// stall for plan().stall_ms.
  [[nodiscard]] bool ShouldStallConsumer() {
    return Trips(batches_seen_stall_, plan_.stall_consumer_at_batch);
  }

  /// Called once per client frame send (TCP tests).
  [[nodiscard]] bool ShouldDropConnection() {
    return Trips(frames_seen_, plan_.drop_connection_at_frame);
  }

  const FaultPlan& plan() const { return plan_; }
  uint64_t ops_seen() const { return ops_seen_.load(std::memory_order_relaxed); }
  bool fired() const {
    return plan_.fail_at_op != 0 && ops_seen() >= plan_.fail_at_op;
  }

 private:
  /// Shared one-shot scheme: increments `seen` and fires exactly on the
  /// configured 1-based trigger count (0 disables).
  [[nodiscard]] static bool Trips(std::atomic<uint64_t>& seen,
                                  uint64_t trigger) {
    if (trigger == 0) return false;
    return seen.fetch_add(1, std::memory_order_relaxed) + 1 == trigger;
  }

  FaultPlan plan_;
  std::atomic<uint64_t> ops_seen_{0};
  std::atomic<uint64_t> wal_records_seen_{0};
  std::atomic<uint64_t> matchlog_commits_seen_{0};
  std::atomic<uint64_t> pre_rename_seen_{0};
  std::atomic<uint64_t> post_rename_seen_{0};
  std::atomic<uint64_t> batches_seen_ckpt_{0};
  std::atomic<uint64_t> batches_seen_stall_{0};
  std::atomic<uint64_t> frames_seen_{0};
};

/// Flips one bit of `snapshot` (byte `byte_index`, bit 0). Out-of-range
/// indexes are a no-op so fuzz loops can sweep past the end harmlessly.
/// Returns true iff a byte was modified — callers must branch on this
/// (a test that "corrupted" nothing would silently assert on clean data).
[[nodiscard]] bool CorruptSnapshot(std::string& snapshot, size_t byte_index);

}  // namespace turboflux

#endif  // TURBOFLUX_HARNESS_FAULT_INJECTION_H_
