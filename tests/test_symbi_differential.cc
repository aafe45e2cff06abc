// Engine-differential test net (ISSUE 9 satellite): SymBi, TurboFlux, and
// the exponential OracleEngine consume identical op tapes, and every op's
// match multiset must coincide across all three — and then under
// kill/restore replay through RunResilient, where the faulted SymBi run
// must reproduce the unfaulted run's record stream byte-for-byte.

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/recovery.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/symbi/symbi.h"

namespace turboflux {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

/// Per-seed workload shapes: rotate through tree queries, cyclic queries,
/// and delete-heavy streams so the sweep covers the DCS's set and clear
/// cascades alike.
testutil::RandomCaseConfig SweepConfig(uint64_t seed) {
  testutil::RandomCaseConfig config;
  switch (seed % 3) {
    case 1:
      config.query_vertices = 4;
      config.query_edges = 5;  // cycle-closing edges
      config.initial_edges = 16;
      break;
    case 2:
      config.deletion_probability = 0.55;
      config.stream_ops = 40;
      break;
    default:
      break;
  }
  return config;
}

/// Applies the stream one op at a time, returning each op's match multiset.
/// Initial matches land in `initial`.
template <typename Engine>
bool RunPerOp(Engine& engine, const testutil::RandomCase& c,
              std::vector<std::unordered_map<std::string, int>>& per_op,
              uint64_t* initial) {
  CountingSink init_sink;
  if (!engine.Init(c.query, c.g0, init_sink, Deadline::Infinite())) {
    return false;
  }
  *initial = init_sink.positive();
  per_op.clear();
  per_op.reserve(c.stream.size());
  for (const UpdateOp& op : c.stream) {
    CollectingSink sink;
    if (!engine.ApplyUpdate(op, sink, Deadline::Infinite())) return false;
    per_op.push_back(sink.ToMultiset());
  }
  return true;
}

void ExpectSameRecords(const CollectingSink& want, const CollectingSink& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.records()[i].positive, got.records()[i].positive)
        << what << " record " << i;
    EXPECT_EQ(want.records()[i].mapping, got.records()[i].mapping)
        << what << " record " << i;
  }
}

/// The core lockstep property for one seed.
void DifferentialSeed(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  testutil::RandomCase c = testutil::MakeRandomCase(seed, SweepConfig(seed));

  // 1. Per-op lockstep: SymBi vs TurboFlux vs the exponential oracle.
  std::vector<std::unordered_map<std::string, int>> symbi_ops, tfx_ops,
      oracle_ops;
  uint64_t symbi_initial = 0, tfx_initial = 0, oracle_initial = 0;

  symbi::SymBiEngine symbi;
  ASSERT_TRUE(RunPerOp(symbi, c, symbi_ops, &symbi_initial));
  TurboFluxEngine tfx;
  ASSERT_TRUE(RunPerOp(tfx, c, tfx_ops, &tfx_initial));
  testutil::OracleEngine oracle;
  ASSERT_TRUE(RunPerOp(oracle, c, oracle_ops, &oracle_initial));

  EXPECT_EQ(symbi_initial, tfx_initial);
  EXPECT_EQ(symbi_initial, oracle_initial);
  ASSERT_EQ(symbi_ops.size(), c.stream.size());
  ASSERT_EQ(tfx_ops.size(), c.stream.size());
  for (size_t i = 0; i < c.stream.size(); ++i) {
    EXPECT_EQ(symbi_ops[i], tfx_ops[i])
        << "SymBi vs TurboFlux diverge at op " << i << " ("
        << c.stream[i].ToString() << ")";
    EXPECT_EQ(symbi_ops[i], oracle_ops[i])
        << "SymBi vs Oracle diverge at op " << i << " ("
        << c.stream[i].ToString() << ")";
  }

  // 2. Kill/restore replay: a faulted resilient SymBi run must deliver the
  // unfaulted run's record stream byte-for-byte (RunResilient commits
  // matches in deterministic order), and agree with TurboFlux's multiset
  // through the same resilient path.
  CollectingSink resilient_ref;
  {
    symbi::SymBiEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 10;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, c.stream, resilient_ref, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.ops_consumed, c.stream.size());
    EXPECT_EQ(r.initial_matches, symbi_initial);
  }
  const uint64_t kill = 1 + seed % 25;
  {
    FaultPlan plan;
    plan.fail_at_op = kill;
    FaultInjector inj(plan);
    symbi::SymBiEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 10;
    ro.injector = &inj;
    CollectingSink sink;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.ops_consumed, c.stream.size());
    if (kill <= c.stream.size()) {
      EXPECT_TRUE(inj.fired());
      EXPECT_GE(r.recoveries, 1u);
    }
    ExpectSameRecords(resilient_ref, sink,
                      "faulted vs unfaulted SymBi (kill=" +
                          std::to_string(kill) + ")");
    EXPECT_EQ(engine.dcs().Compare(engine.RebuildDcsFromScratch()), "");
  }
  {
    TurboFluxEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 10;
    CollectingSink sink;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_TRUE(testutil::SameMatches(sink, resilient_ref));
  }
}

// The 200-seed acceptance sweep. Short mode runs a deterministic slice;
// TFX_LONG_TESTS=1 (the engine-diff CI job) runs all 200.
class SymBiDifferentialSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymBiDifferentialSweep, LockstepWithTurboFluxAndOracle) {
  const uint64_t seed = GetParam();
  if (!LongTests() && seed % 10 != 0) GTEST_SKIP() << "short mode slice";
  DifferentialSeed(seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymBiDifferentialSweep,
                         ::testing::Range<uint64_t>(0, 200));

// Dirty tapes: malformed ops must be quarantined identically by both
// EngineInterface implementations, with identical surviving match streams.
TEST(SymBiDifferential, QuarantineParity) {
  for (uint64_t seed : {5u, 17u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomCase c = testutil::MakeRandomCase(seed, {});
    const VertexId bogus = static_cast<VertexId>(c.g0.VertexCount()) + 3;
    UpdateStream dirty = c.stream;
    dirty.insert(dirty.begin() + 2, UpdateOp::Insert(1, 0, bogus));
    dirty.insert(dirty.begin() + 9, UpdateOp::Delete(bogus, 1, 0));
    symbi::SymBiEngine symbi;
    TurboFluxEngine tfx;
    CountingSink si, ti;
    ASSERT_TRUE(symbi.Init(c.query, c.g0, si, Deadline::Infinite()));
    ASSERT_TRUE(tfx.Init(c.query, c.g0, ti, Deadline::Infinite()));
    CollectingSink ss, ts;
    for (const UpdateOp& op : dirty) {
      const Status a = symbi.TryApplyUpdate(op, ss, Deadline::Infinite());
      const Status b = tfx.TryApplyUpdate(op, ts, Deadline::Infinite());
      EXPECT_EQ(a.code(), b.code()) << op.ToString();
    }
    ASSERT_EQ(symbi.quarantine().size(), 2u);
    ASSERT_EQ(tfx.quarantine().size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(symbi.quarantine()[i].index, tfx.quarantine()[i].index);
      EXPECT_EQ(symbi.quarantine()[i].op, tfx.quarantine()[i].op);
    }
    EXPECT_EQ(symbi.applied_ops(), tfx.applied_ops());
    EXPECT_TRUE(testutil::SameMatches(ss, ts));
  }
}

// Isomorphism semantics: both engines restricted to injective matches.
TEST(SymBiDifferential, IsomorphismLockstep) {
  for (uint64_t seed : {3u, 9u, 27u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomCase c = testutil::MakeRandomCase(seed, {});

    std::vector<std::unordered_map<std::string, int>> symbi_ops, tfx_ops,
        oracle_ops;
    uint64_t si = 0, ti = 0, oi = 0;
    symbi::SymBiEngine symbi(
        symbi::SymBiOptions{MatchSemantics::kIsomorphism});
    ASSERT_TRUE(RunPerOp(symbi, c, symbi_ops, &si));
    TurboFluxOptions options;
    options.semantics = MatchSemantics::kIsomorphism;
    TurboFluxEngine tfx(options);
    ASSERT_TRUE(RunPerOp(tfx, c, tfx_ops, &ti));
    testutil::OracleEngine oracle(MatchSemantics::kIsomorphism);
    ASSERT_TRUE(RunPerOp(oracle, c, oracle_ops, &oi));

    EXPECT_EQ(si, ti);
    EXPECT_EQ(si, oi);
    for (size_t i = 0; i < c.stream.size(); ++i) {
      EXPECT_EQ(symbi_ops[i], tfx_ops[i]) << "op " << i;
      EXPECT_EQ(symbi_ops[i], oracle_ops[i]) << "op " << i;
    }
  }
}

}  // namespace
}  // namespace turboflux
