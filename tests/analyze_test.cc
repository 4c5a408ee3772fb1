// Unit suite for the pgm_analyze passes (tools/lint/analyze.h): manifest
// parsing and validation, module mapping, the layering and lock-order
// passes, and the include-cycle project pass. The shipped manifests under
// tools/lint/manifests/ are loaded and sanity-checked too, so a bad edit
// there fails tier-1, not just `ctest -L lint`. PGM_LINT_SOURCE_DIR is
// injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tools/lint/analyze.h"
#include "tools/lint/lint.h"
#include "util/mutex.h"

namespace pgm {
namespace lint {
namespace {

/// Runs a pass over in-memory source the way LintSource would: split and
/// strip first, then hand both views to the checker.
template <typename Pass, typename Manifest>
std::vector<Finding> RunPass(Pass pass, const std::string& path,
                             const std::string& content,
                             const Manifest& manifest) {
  std::vector<std::string> raw;
  std::vector<std::string> stripped;
  internal::SplitAndStrip(content, &raw, &stripped);
  return pass(path, raw, stripped, manifest);
}

// --- Manifest parsing ---

TEST(LayeringManifestTest, ParsesModulesAndDeps) {
  StatusOr<LayeringManifest> manifest =
      LayeringManifest::Parse("# comment\nutil:\ncore: util seq\nseq: util\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().allowed.size(), 3u);
  EXPECT_EQ(manifest.value().allowed.at("core"),
            (std::set<std::string>{"util", "seq"}));
  EXPECT_TRUE(manifest.value().allowed.at("util").empty());
}

TEST(LayeringManifestTest, RejectsMalformedAndDuplicateLines) {
  EXPECT_FALSE(LayeringManifest::Parse("no-colon-here\n").ok());
  EXPECT_FALSE(LayeringManifest::Parse("util:\nutil: core\n").ok());
  EXPECT_FALSE(LayeringManifest::Parse("# only comments\n").ok());
}

TEST(LayeringManifestTest, SelfEdgesAreImplicit) {
  StatusOr<LayeringManifest> manifest =
      LayeringManifest::Parse("core: core util\nutil:\n");
  ASSERT_TRUE(manifest.ok());
  // The explicit self-edge is dropped; in-module includes are always legal.
  EXPECT_EQ(manifest.value().allowed.at("core"),
            std::set<std::string>{"util"});
}

TEST(LayeringManifestTest, CycleDetectionNamesThePath) {
  StatusOr<LayeringManifest> manifest =
      LayeringManifest::Parse("a: b\nb: c\nc: a\n");
  ASSERT_TRUE(manifest.ok());
  const Status cyclic = manifest.value().CheckAcyclic();
  EXPECT_FALSE(cyclic.ok());
  EXPECT_NE(cyclic.ToString().find("cycle"), std::string::npos);

  StatusOr<LayeringManifest> dag = LayeringManifest::Parse("a: b\nb: c\nc:\n");
  ASSERT_TRUE(dag.ok());
  EXPECT_TRUE(dag.value().CheckAcyclic().ok());
}

TEST(LockOrderManifestTest, ParsesRankedLocks) {
  StatusOr<LockOrderManifest> manifest = LockOrderManifest::Parse(
      "# hierarchy\n10 queue serve/queue mutex_\n20 pool util/pool mu_\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().locks.size(), 2u);
  EXPECT_EQ(manifest.value().locks[0].name, "queue");
  EXPECT_EQ(manifest.value().locks[0].rank, 10);
  EXPECT_EQ(manifest.value().locks[1].expression, "mu_");
}

TEST(LockOrderManifestTest, RejectsBadRanksAndArity) {
  EXPECT_FALSE(LockOrderManifest::Parse("ten queue q mu\n").ok());
  EXPECT_FALSE(LockOrderManifest::Parse("-5 queue q mu\n").ok());
  EXPECT_FALSE(LockOrderManifest::Parse("10 queue q\n").ok());
  // Duplicate rank: the hierarchy must be a total order.
  EXPECT_FALSE(
      LockOrderManifest::Parse("10 a p1 m1\n10 b p2 m2\n").ok());
}

TEST(LockOrderManifestTest, ResolvesByPathAndExpression) {
  StatusOr<LockOrderManifest> manifest = LockOrderManifest::Parse(
      "10 queue serve/queue mutex_\n20 pool util/pool mu_\n");
  ASSERT_TRUE(manifest.ok());
  const RankedLock* lock =
      manifest.value().Resolve("src/serve/queue.cc", "mutex_");
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->name, "queue");
  // Wrong path, wrong expression, and substring-not-word all miss.
  EXPECT_EQ(manifest.value().Resolve("src/core/miner.cc", "mutex_"), nullptr);
  EXPECT_EQ(manifest.value().Resolve("src/serve/queue.cc", "other_"), nullptr);
  EXPECT_EQ(manifest.value().Resolve("src/util/pool.cc", "mu_tated"), nullptr);
}

TEST(DeterminismManifestTest, ParsesSeamsAndRejectsUnknownDirectives) {
  StatusOr<DeterminismManifest> manifest =
      DeterminismManifest::Parse("wall-clock-seam bench/\n");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest.value().SanctionsWallClock("bench/bench_em.cc"));
  EXPECT_FALSE(manifest.value().SanctionsWallClock("src/core/miner.cc"));
  EXPECT_FALSE(DeterminismManifest::Parse("clock-seam bench/\n").ok());
  EXPECT_FALSE(DeterminismManifest::Parse("wall-clock-seam\n").ok());
}

// --- Module mapping ---

TEST(ModuleOfTest, MapsSrcSubdirsAndTopDirs) {
  EXPECT_EQ(ModuleOf("src/core/miner.cc"), "core");
  EXPECT_EQ(ModuleOf("/root/repo/src/util/io.h"), "util");
  EXPECT_EQ(ModuleOf("tools/lint/lint.cc"), "tools");
  EXPECT_EQ(ModuleOf("tests/analyze_test.cc"), "tests");
  EXPECT_EQ(ModuleOf("bench/bench_em.cc"), "bench");
  EXPECT_EQ(ModuleOf("examples/quickstart.cpp"), "examples");
  EXPECT_EQ(ModuleOf("README.md"), "");
}

TEST(IncludeTargetModuleTest, NormalizesSrcPrefix) {
  EXPECT_EQ(IncludeTargetModule("util/io.h"), "util");
  EXPECT_EQ(IncludeTargetModule("src/util/io.h"), "util");
  EXPECT_EQ(IncludeTargetModule("tools/lint/lint.h"), "tools");
  // A flat include ("gtest.h") maps to no module and is never an edge.
  EXPECT_EQ(IncludeTargetModule("gtest.h"), "");
}

// --- Layering pass ---

TEST(CheckLayeringTest, FlagsUndeclaredEdgeAndHonorsWaiver) {
  StatusOr<LayeringManifest> manifest =
      LayeringManifest::Parse("core: util\nutil:\nserve: core util\n");
  ASSERT_TRUE(manifest.ok());
  const std::string bad =
      "#include \"serve/service.h\"\n#include \"util/io.h\"\n";
  std::vector<Finding> findings =
      RunPass(CheckLayering, "src/core/miner.cc", bad, manifest.value());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("core -> serve"), std::string::npos);

  const std::string waived =
      "// pgm-lint: allow(layering)\n#include \"serve/service.h\"\n";
  EXPECT_TRUE(
      RunPass(CheckLayering, "src/core/miner.cc", waived, manifest.value())
          .empty());
}

TEST(CheckLayeringTest, IgnoresCommentedIncludesAndSystemHeaders) {
  StatusOr<LayeringManifest> manifest =
      LayeringManifest::Parse("core: util\nutil:\n");
  ASSERT_TRUE(manifest.ok());
  const std::string content =
      "// #include \"serve/service.h\"\n"
      "#include <vector>\n"
      "#include \"util/io.h\"\n";
  EXPECT_TRUE(
      RunPass(CheckLayering, "src/core/miner.cc", content, manifest.value())
          .empty());
}

TEST(CheckLayeringTest, FlagsModuleMissingFromManifest) {
  StatusOr<LayeringManifest> manifest = LayeringManifest::Parse("util:\n");
  ASSERT_TRUE(manifest.ok());
  std::vector<Finding> findings = RunPass(
      CheckLayering, "src/core/miner.cc", "#include \"util/io.h\"\n",
      manifest.value());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("not declared"), std::string::npos);
}

// --- Lock-order pass ---

TEST(CheckLockOrderTest, FlagsInversionAcrossNestedScopes) {
  StatusOr<LockOrderManifest> manifest = LockOrderManifest::Parse(
      "10 outer x outer_mu\n20 inner x inner_mu\n");
  ASSERT_TRUE(manifest.ok());
  const std::string bad =
      "void f(S& s) {\n"
      "  MutexLock inner(s.inner_mu);\n"
      "  {\n"
      "    MutexLock outer(s.outer_mu);\n"
      "  }\n"
      "}\n";
  std::vector<Finding> findings =
      RunPass(CheckLockOrder, "src/x/f.cc", bad, manifest.value());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[0].rule, "lock-order");
}

TEST(CheckLockOrderTest, ScopeExitReleasesTheRank) {
  StatusOr<LockOrderManifest> manifest = LockOrderManifest::Parse(
      "10 outer x outer_mu\n20 inner x inner_mu\n");
  ASSERT_TRUE(manifest.ok());
  // Sequential (non-nested) scopes in any order are legal: the first lock
  // is released before the second is acquired.
  const std::string sequential =
      "void f(S& s) {\n"
      "  { MutexLock inner(s.inner_mu); }\n"
      "  { MutexLock outer(s.outer_mu); }\n"
      "}\n";
  EXPECT_TRUE(
      RunPass(CheckLockOrder, "src/x/f.cc", sequential, manifest.value())
          .empty());
  // In-order nesting is legal too.
  const std::string nested =
      "void f(S& s) {\n"
      "  MutexLock outer(s.outer_mu);\n"
      "  { MutexLock inner(s.inner_mu); }\n"
      "}\n";
  EXPECT_TRUE(
      RunPass(CheckLockOrder, "src/x/f.cc", nested, manifest.value())
          .empty());
}

TEST(CheckLockOrderTest, UnrankedLocksAreExempt) {
  StatusOr<LockOrderManifest> manifest =
      LockOrderManifest::Parse("10 outer x outer_mu\n");
  ASSERT_TRUE(manifest.ok());
  const std::string content =
      "void f(S& s) {\n"
      "  MutexLock a(s.scratch_mu);\n"
      "  MutexLock b(s.outer_mu);\n"
      "}\n";
  EXPECT_TRUE(
      RunPass(CheckLockOrder, "src/x/f.cc", content, manifest.value())
          .empty());
}

// --- Include-cycle project pass ---

TEST(CheckIncludeCyclesTest, FlagsCycleAndNamesThePath) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/a/one.h", "#include \"a/two.h\"\n"},
      {"src/a/two.h", "#include \"a/one.h\"\n"},
      {"src/a/leaf.h", "#include \"a/one.h\"\n"},
  };
  std::vector<Finding> findings = CheckIncludeCycles(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("one.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("two.h"), std::string::npos);
}

TEST(CheckIncludeCyclesTest, WaiverOnTheBackEdgeSilences) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/a/one.h", "#include \"a/two.h\"\n"},
      {"src/a/two.h",
       "// pgm-lint: allow(include-cycle)\n#include \"a/one.h\"\n"},
  };
  EXPECT_TRUE(CheckIncludeCycles(files).empty());
}

TEST(CheckIncludeCyclesTest, AcyclicGraphIsSilent) {
  std::vector<std::pair<std::string, std::string>> files = {
      {"src/a/one.h", "#include \"a/two.h\"\n#include \"a/three.h\"\n"},
      {"src/a/two.h", "#include \"a/three.h\"\n"},
      {"src/a/three.h", "#include <vector>\n"},
  };
  EXPECT_TRUE(CheckIncludeCycles(files).empty());
}

// --- The shipped manifests ---

TEST(ShippedManifestsTest, LoadAndValidate) {
  StatusOr<AnalyzerManifests> manifests =
      LoadManifests(std::string(PGM_LINT_SOURCE_DIR) + "/tools/lint/manifests");
  ASSERT_TRUE(manifests.ok()) << manifests.status().ToString();
  // The DAG bottom: util depends on nothing; everything may reach util.
  EXPECT_TRUE(manifests.value().layering.allowed.at("util").empty());
  for (const auto& [module, deps] : manifests.value().layering.allowed) {
    if (module != "util") {
      EXPECT_EQ(deps.count("util"), 1u) << module;
    }
  }
  // The lock hierarchy matches util/mutex.h's LockRank values.
  ASSERT_EQ(manifests.value().lock_order.locks.size(), 7u);
  EXPECT_EQ(manifests.value().lock_order.locks.front().rank, 10);
  EXPECT_EQ(manifests.value().lock_order.locks.back().rank, 80);
  // The stopwatch seam exists: it is the sanctioned timing primitive.
  EXPECT_TRUE(manifests.value().determinism.SanctionsWallClock(
      "src/util/stopwatch.h"));
  EXPECT_FALSE(
      manifests.value().determinism.SanctionsWallClock("src/core/miner.cc"));
}

TEST(ShippedManifestsTest, DeclaredHierarchyMatchesRuntimeRanks) {
  StatusOr<AnalyzerManifests> manifests =
      LoadManifests(std::string(PGM_LINT_SOURCE_DIR) + "/tools/lint/manifests");
  ASSERT_TRUE(manifests.ok());
  // The static manifest and the runtime LockRank enum must agree rank by
  // rank — the two enforcement layers check the same hierarchy.
  const std::vector<std::pair<std::string, int>> expected = {
      {"queue", kLockRankQueue},     {"service", kLockRankService},
      {"cache", kLockRankCache},     {"pool", kLockRankPool},
      {"metrics", kLockRankMetrics}, {"trace", kLockRankTrace},
      {"backoff", kLockRankBackoff},
  };
  ASSERT_EQ(manifests.value().lock_order.locks.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(manifests.value().lock_order.locks[i].name, expected[i].first);
    EXPECT_EQ(manifests.value().lock_order.locks[i].rank, expected[i].second);
  }
}

}  // namespace
}  // namespace lint
}  // namespace pgm
