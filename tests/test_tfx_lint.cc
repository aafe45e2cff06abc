// Seeded-violation tests for tfx_lint (DESIGN.md §3.9): each check must
// fire on a minimal violating snippet and stay quiet on the idiomatic
// fixed version, so the tree-wide zero-finding gate (TfxLint.TreeIsClean)
// is meaningful — a checker that never fires gates nothing.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint/lint.h"

namespace {

using ::tfx_lint::FileInput;
using ::tfx_lint::Finding;
using ::tfx_lint::Lint;

std::vector<Finding> LintOne(const std::string& path,
                             const std::string& content) {
  return Lint({FileInput{path, content}});
}

bool HasCheck(const std::vector<Finding>& findings, const std::string& check) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.check == check; });
}

TEST(TfxLint, ChecksAreListed) {
  const std::vector<std::string> names = tfx_lint::CheckNames();
  EXPECT_EQ(names.size(), 5u);
  for (const char* expected : {"raw-sync", "discarded-status",
                               "hot-path-registry", "hot-path-map",
                               "unordered-emission"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// --- raw-sync ---

TEST(TfxLintRawSync, FlagsRawMutexOutsideWrapperHeader) {
  const std::string bad =
      "#include <mutex>\n"
      "struct S {\n"
      "  std::mutex mu_;\n"
      "  void F() { std::lock_guard<std::mutex> l(mu_); }\n"
      "};\n";
  const std::vector<Finding> findings =
      LintOne("src/turboflux/parallel/foo.h", bad);
  ASSERT_TRUE(HasCheck(findings, "raw-sync"));
  // Three raw uses: the member, the guard, and the guard's template arg.
  EXPECT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(TfxLintRawSync, CoversServeDirectory) {
  // The ingestion service is all cross-thread hand-off; pin that its
  // files go through the annotated wrappers like everything else.
  const std::string bad = "std::condition_variable cv_;\n";
  EXPECT_TRUE(HasCheck(LintOne("src/turboflux/serve/queue.h", bad),
                       "raw-sync"));
}

TEST(TfxLintRawSync, WrapperHeaderIsExempt) {
  const std::string wrapper =
      "struct Mutex { std::mutex mu_; };\n"
      "struct CondVar { std::condition_variable cv_; };\n";
  EXPECT_TRUE(
      LintOne("src/turboflux/common/synchronization.h", wrapper).empty());
}

TEST(TfxLintRawSync, AnnotatedWrappersAreClean) {
  const std::string good =
      "#include \"turboflux/common/synchronization.h\"\n"
      "struct S {\n"
      "  turboflux::Mutex mu_;\n"
      "  void F() { turboflux::MutexLock l(mu_); }\n"
      "};\n";
  EXPECT_TRUE(LintOne("src/turboflux/parallel/foo.h", good).empty());
}

TEST(TfxLintRawSync, MentionsInCommentsAndStringsIgnored) {
  const std::string text =
      "// never use std::mutex here\n"
      "const char* kMsg = \"std::lock_guard is banned\";\n";
  EXPECT_TRUE(LintOne("src/a.cc", text).empty());
}

TEST(TfxLintRawSync, SuppressionCommentSilencesFinding) {
  const std::string text =
      "// tfx-lint: allow(raw-sync)\n"
      "std::mutex g_legacy;\n";
  EXPECT_TRUE(LintOne("src/a.cc", text).empty());
}

// --- discarded-status ---

TEST(TfxLintDiscardedStatus, FlagsDroppedEngineCalls) {
  const std::string bad =
      "void F(Engine& e, std::ostream& os) {\n"
      "  e.Checkpoint(os);\n"
      "}\n";
  const std::vector<Finding> findings = LintOne("tools/x.cc", bad);
  ASSERT_TRUE(HasCheck(findings, "discarded-status"));
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(TfxLintDiscardedStatus, HarvestsProjectLocalStatusFunctions) {
  const std::string decl =
      "Status WriteSideCar(const std::string& path);\n";
  const std::string bad =
      "void F() {\n"
      "  WriteSideCar(\"x\");\n"
      "}\n";
  const std::vector<Finding> findings =
      Lint({FileInput{"src/a.h", decl}, FileInput{"src/b.cc", bad}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "discarded-status");
  EXPECT_EQ(findings[0].file, "src/b.cc");
}

TEST(TfxLintDiscardedStatus, ConsumedResultsAreClean) {
  const std::string good =
      "Status G(Engine& e, std::istream& in) {\n"
      "  Status st = e.Restore(in);\n"
      "  if (!e.Restore(in).ok()) return st;\n"
      "  return e.Restore(in);\n"
      "}\n"
      "void H(Engine& e, std::istream& in) {\n"
      "  (void)e.Restore(in);\n"
      "}\n";
  EXPECT_TRUE(LintOne("src/a.cc", good).empty());
}

TEST(TfxLintDiscardedStatus, DeclarationsAndDefinitionsAreClean) {
  const std::string good =
      "class Engine {\n"
      "  Status Checkpoint(std::ostream& out) const;\n"
      "};\n"
      "Status Engine::Checkpoint(std::ostream& out) const {\n"
      "  return Status::Ok();\n"
      "}\n";
  EXPECT_TRUE(LintOne("src/a.cc", good).empty());
}

TEST(TfxLintDiscardedStatus, MultiLineCallIsFlagged) {
  const std::string bad =
      "void F(Engine& e) {\n"
      "  e.TryApplyUpdate(op,\n"
      "                   sink, deadline);\n"
      "}\n";
  const std::vector<Finding> findings = LintOne("src/a.cc", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

// --- hot-path-registry ---

TEST(TfxLintHotPathRegistry, FlagsRegistryLookupInCore) {
  const std::string bad =
      "void Engine::Tick() {\n"
      "  registry_->GetCounter(\"engine\", \"ops\").Inc();\n"
      "}\n";
  const std::vector<Finding> findings =
      LintOne("src/turboflux/core/turboflux.cc", bad);
  ASSERT_TRUE(HasCheck(findings, "hot-path-registry"));
}

TEST(TfxLintHotPathRegistry, HarnessAndTestsMayUseRegistry) {
  const std::string ok =
      "void Collect() { reg.GetCounter(\"run\", \"ops\").Inc(); }\n";
  EXPECT_TRUE(LintOne("src/turboflux/harness/runner.cc", ok).empty());
  EXPECT_TRUE(LintOne("tests/test_obs.cc", ok).empty());
}

// --- hot-path-map ---

TEST(TfxLintHotPathMap, FlagsUnorderedMapInHotPathDirs) {
  const std::string bad =
      "class Index {\n"
      "  std::unordered_map<uint64_t, std::vector<EdgeLabel>> edges_;\n"
      "};\n";
  for (const char* dir :
       {"core", "match", "parallel", "baseline", "graph", "serve", "symbi"}) {
    const std::vector<Finding> findings =
        LintOne("src/turboflux/" + std::string(dir) + "/a.h", bad);
    ASSERT_TRUE(HasCheck(findings, "hot-path-map")) << dir;
    EXPECT_EQ(findings[0].line, 2u) << dir;
  }
}

TEST(TfxLintHotPathMap, FlagsIncludeLineToo) {
  const std::string bad = "#include <unordered_map>\n";
  EXPECT_TRUE(HasCheck(LintOne("src/turboflux/core/a.cc", bad),
                       "hot-path-map"));
}

TEST(TfxLintHotPathMap, ColdPathsAndTestsAreExempt) {
  const std::string snippet =
      "std::unordered_map<VertexId, size_t> index;\n";
  EXPECT_TRUE(LintOne("src/turboflux/workload/query_gen.cc", snippet).empty());
  EXPECT_TRUE(LintOne("src/turboflux/multi/query_set.h", snippet).empty());
  EXPECT_TRUE(LintOne("tests/test_graph.cc", snippet).empty());
}

TEST(TfxLintHotPathMap, SuppressionOnLineOrLineAboveSilences) {
  const std::string same_line =
      "std::unordered_map<int, int> m;  // tfx-lint: allow(hot-path-map)\n";
  const std::string line_above =
      "// scratch only. tfx-lint: allow(hot-path-map)\n"
      "std::unordered_map<int, int> m;\n";
  // A marker BELOW the declaration must not suppress — placement matters.
  const std::string line_below =
      "std::unordered_map<int, int>\n"
      "    m;  // tfx-lint: allow(hot-path-map)\n";
  EXPECT_TRUE(LintOne("src/turboflux/core/a.cc", same_line).empty());
  EXPECT_TRUE(LintOne("src/turboflux/core/a.cc", line_above).empty());
  EXPECT_TRUE(HasCheck(LintOne("src/turboflux/core/a.cc", line_below),
                       "hot-path-map"));
}

TEST(TfxLintHotPathMap, OrderedMapAndFlatTableAreClean) {
  const std::string good =
      "#include \"turboflux/common/flat_table.h\"\n"
      "class G {\n"
      "  FlatPairTable pair_index_;\n"
      "  std::map<uint64_t, int> debug_only_;\n"
      "};\n";
  EXPECT_TRUE(LintOne("src/turboflux/graph/g.h", good).empty());
}

// --- unordered-emission ---

TEST(TfxLintUnorderedEmission, FlagsEmissionFromUnorderedIteration) {
  const std::string bad =
      "void F(MatchSink& sink) {\n"
      "  std::unordered_map<std::string, Mapping> found;\n"
      "  for (const auto& [k, m] : found) {\n"
      "    sink.OnMatch(true, m);\n"
      "  }\n"
      "}\n";
  const std::vector<Finding> findings = LintOne("src/a.cc", bad);
  ASSERT_TRUE(HasCheck(findings, "unordered-emission"));
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(TfxLintUnorderedEmission, OrderedMapAndNonEmittingLoopsAreClean) {
  const std::string good =
      "void F(MatchSink& sink) {\n"
      "  std::map<std::string, Mapping> found;\n"
      "  for (const auto& [k, m] : found) sink.OnMatch(true, m);\n"
      "  std::unordered_map<int, int> counts;\n"
      "  for (const auto& [k, v] : counts) total += v;\n"
      "}\n";
  EXPECT_TRUE(LintOne("src/a.cc", good).empty());
}

TEST(TfxLintUnorderedEmission, MemberContainerDeclaredInSameFile) {
  const std::string bad =
      "class Oracle {\n"
      "  std::unordered_set<Mapping> current_;\n"
      "  void Drain(MatchSink& sink) {\n"
      "    for (const auto& m : current_) sink.OnMatch(false, m);\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(HasCheck(LintOne("src/a.h", bad), "unordered-emission"));
}

// --- infrastructure ---

TEST(TfxLintStrip, PreservesLineStructure) {
  const std::string src = "int a; // std::mutex\n\"std::mutex\";\nint b;\n";
  const std::string stripped = tfx_lint::StripCommentsAndStrings(src);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 3);
  EXPECT_EQ(stripped.find("mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int b"), std::string::npos);
}

TEST(TfxLintStrip, HandlesRawStrings) {
  const std::string src = "auto s = R\"(std::mutex)\"; std::mutex mu;\n";
  const std::vector<Finding> findings = LintOne("src/a.cc", src);
  ASSERT_EQ(findings.size(), 1u);  // only the real declaration
}

TEST(TfxLintCompileCommands, ExtractsAndResolvesFiles) {
  const std::string json =
      "[\n"
      "{\"directory\": \"/repo/build\",\n"
      " \"command\": \"g++ -c ../src/a.cc\",\n"
      " \"file\": \"../src/a.cc\"},\n"
      "{\"directory\": \"/repo/build\",\n"
      " \"file\": \"/repo/src/b.cc\"},\n"
      "{\"directory\": \"/repo/build\",\n"
      " \"file\": \"/repo/src/b.cc\"}\n"
      "]\n";
  std::string error;
  const std::vector<std::string> files =
      tfx_lint::FilesFromCompileCommands(json, &error);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/repo/build/../src/a.cc");
  EXPECT_EQ(files[1], "/repo/src/b.cc");
}

TEST(TfxLintCompileCommands, EmptyInputReportsError) {
  std::string error;
  EXPECT_TRUE(tfx_lint::FilesFromCompileCommands("[]", &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST(TfxLintFinding, FormatsAsFileLineCheckMessage) {
  const Finding f{"src/a.cc", 7, "raw-sync", "msg"};
  EXPECT_EQ(f.ToString(), "src/a.cc:7: [raw-sync] msg");
}

}  // namespace
