#ifndef TURBOFLUX_HARNESS_ENGINE_H_
#define TURBOFLUX_HARNESS_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "turboflux/common/deadline.h"
#include "turboflux/common/match.h"
#include "turboflux/common/status.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/obs/engine_stats.h"
#include "turboflux/query/query_graph.h"

namespace turboflux {

/// Common interface of every continuous subgraph matching engine in this
/// repository (TurboFlux, SJ-Tree, Graphflow, IncIsoMat). An engine owns
/// its copy of the evolving data graph: Init seeds it with g0, and each
/// ApplyUpdate both applies the update to the internal graph and reports
/// the update's positive/negative matches to the sink.
class ContinuousEngine {
 public:
  virtual ~ContinuousEngine() = default;

  /// Prepares the engine for query `q` over initial graph `g0` and reports
  /// all matches of the initial graph as positive matches. Returns false
  /// if the deadline expired (engine state is then unusable).
  virtual bool Init(const QueryGraph& q, const Graph& g0, MatchSink& sink,
                    Deadline deadline) = 0;

  /// Applies one update operation and reports the positive (insertion) or
  /// negative (deletion) matches it causes. Returns false if the deadline
  /// expired mid-operation (reported matches may then be incomplete and
  /// the engine must not be used further — except TurboFlux, which can be
  /// brought back with TurboFluxEngine::Restore; see DESIGN.md §3.7).
  virtual bool ApplyUpdate(const UpdateOp& op, MatchSink& sink,
                           Deadline deadline) = 0;

  /// Current size of maintained intermediate results, in the engine's
  /// natural unit: DCG edges for TurboFlux, stored partial-solution vertex
  /// slots for SJ-Tree, 0 for the stateless engines.
  virtual size_t IntermediateSize() const = 0;

  /// True if the engine supports edge deletions. (The original SJ-Tree
  /// does not; see Appendix B.2.)
  virtual bool SupportsDeletion() const { return true; }

  virtual std::string name() const = 0;

  /// The engine's hot-path counters (obs/engine_stats.h); nullptr when the
  /// engine is not instrumented. Values reset on Init.
  virtual const obs::EngineStats* engine_stats() const { return nullptr; }

  /// Largest IntermediateSize() observed after any individual op since the
  /// last ResetPeakIntermediate(), never less than the current size.
  /// Instrumented engines note the peak after every op, so callers that
  /// sample only at the end of a stream miss no peak.
  size_t PeakIntermediateSize() const {
    return std::max(peak_intermediate_, IntermediateSize());
  }

  /// Restarts the watermark at the current size (the harness calls this
  /// right after Init so the initial structure is the baseline).
  void ResetPeakIntermediate() { peak_intermediate_ = IntermediateSize(); }

 protected:
  void NotePeakIntermediate() {
    peak_intermediate_ = std::max(peak_intermediate_, IntermediateSize());
  }

 private:
  size_t peak_intermediate_ = 0;
};

/// An update op rejected before evaluation: applying it would have
/// corrupted the engine (e.g. it references a vertex outside the data
/// universe). The op was consumed from the stream as a no-op.
struct QuarantinedOp {
  uint64_t index;  ///< 0-based stream position at which the op arrived
  UpdateOp op;
  Status status;
};

/// The full production engine contract (DESIGN.md §3.13): everything a
/// ContinuousEngine does, plus graceful-degradation updates, crash-
/// consistent checkpointing, and stream-position accounting — the surface
/// RunResilient and the serving layer drive. TurboFlux and SymBi implement
/// it; the paper baselines (SJ-Tree, Graphflow, IncIsoMat) stay plain
/// ContinuousEngines.
///
/// Contract notes shared by all implementations:
///  * TryApplyUpdate consumes exactly one op: out-of-range endpoints are
///    quarantined as no-ops (kOutOfRange), legal no-ops pass their
///    informational status through (kNotFound / kFailedPrecondition), and
///    deadline expiry returns kDeadlineExceeded leaving the engine dead
///    *without* consuming the op — Restore() and replay from
///    applied_ops().
///  * A restored engine reproduces the original's subsequent match stream
///    byte-for-byte (adjacency and enumeration orders are preserved or
///    deterministically rebuilt).
class EngineInterface : public ContinuousEngine {
 public:
  /// ApplyUpdate with graceful degradation; see the contract notes above.
  [[nodiscard]] virtual Status TryApplyUpdate(const UpdateOp& op,
                                              MatchSink& sink,
                                              Deadline deadline) = 0;

  /// Writes a crash-consistent snapshot of the full engine state (format
  /// header + CRC32-framed sections). Requires Init to have succeeded and
  /// the engine to be alive.
  [[nodiscard]] virtual Status Checkpoint(std::ostream& out) const = 0;

  /// Rebuilds the engine from a Checkpoint snapshot, replacing all current
  /// state. Corrupted or truncated snapshots yield a non-OK status and
  /// never crash; on failure the engine is left dead.
  [[nodiscard]] virtual Status Restore(std::istream& in) = 0;

  /// Number of stream ops consumed so far (applied + quarantined) — the
  /// journal position persisted by Checkpoint.
  virtual uint64_t applied_ops() const = 0;

  /// True once an op was abandoned (deadline expiry or injected fault); a
  /// dead engine rejects further updates until Restore().
  virtual bool dead() const = 0;

  /// Ops quarantined since Init (pruned on Restore to positions before the
  /// snapshot, so replay re-reports exactly the re-consumed ones).
  virtual const std::vector<QuarantinedOp>& quarantine() const = 0;

  /// Installs a test-only fault injector (nullptr to disarm). Not owned.
  virtual void set_fault_injector(FaultInjector* injector) = 0;
};

}  // namespace turboflux

#endif  // TURBOFLUX_HARNESS_ENGINE_H_
