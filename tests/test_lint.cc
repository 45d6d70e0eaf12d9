/**
 * @file
 * Self-tests for qmh_lint: every rule against a clean, a violating
 * and a suppressed fixture, the suppression meta-rules, and the
 * tokenizer traps. Fixtures live in tests/lint_fixtures/ (skipped by
 * lintTree, so their intentional violations never fail the tree
 * check); exact line numbers are asserted, so fixture edits must
 * keep lines stable or update the tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "qmh_lint/lint.hh"

namespace qmh {
namespace lint {
namespace {

std::string
fixturePath(const char *name)
{
    return std::string(QMH_LINT_FIXTURE_DIR) + "/" + name;
}

std::string
fixtureText(const char *name)
{
    std::ifstream in(fixturePath(name), std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The findings as (line, rule) pairs, in report order. */
std::vector<std::pair<int, std::string>>
findings(const Report &report)
{
    std::vector<std::pair<int, std::string>> out;
    for (const auto &diagnostic : report.diagnostics)
        out.emplace_back(diagnostic.line, diagnostic.rule);
    return out;
}

using Findings = std::vector<std::pair<int, std::string>>;

TEST(LintRegistry, NamesAndDescriptionsCoverEveryRule)
{
    const auto &names = ruleNames();
    const std::vector<std::string> expect = {
        "no-wallclock",      "no-raw-rand",
        "ordered-iteration", "typed-errors",
        "banned-headers",    "lock-discipline",
        "layering",          "unreachable-module",
        "test-only-api",
        "bad-suppression",   "unused-suppression"};
    EXPECT_EQ(names, expect);
    for (const auto &name : names)
        EXPECT_NE(ruleDescription(name), nullptr) << name;
    EXPECT_EQ(ruleDescription("no-such-rule"), nullptr);
}

TEST(LintDiagnostic, FormatIsFileLineRuleMessageHint)
{
    const Diagnostic with_hint{"a.cc", 7, "no-wallclock", "msg",
                               "fix it"};
    EXPECT_EQ(with_hint.format(),
              "a.cc:7: [no-wallclock] msg (hint: fix it)");
    const Diagnostic bare{"a.cc", 7, "no-wallclock", "msg", ""};
    EXPECT_EQ(bare.format(), "a.cc:7: [no-wallclock] msg");
}

TEST(LintNoWallclock, ViolatingFixtureFlagsEveryClockRead)
{
    const auto report =
        lintFile(fixturePath("wallclock_violating.cc"));
    const Findings expect = {
        {8, "no-wallclock"},  {9, "no-wallclock"},
        {10, "no-wallclock"}, {11, "no-wallclock"},
        {12, "no-wallclock"}, {13, "no-wallclock"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintNoWallclock, CleanFixtureHasNoFindings)
{
    const auto report = lintFile(fixturePath("wallclock_clean.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintNoWallclock, BothSuppressionPlacementsAreHonored)
{
    const auto report =
        lintFile(fixturePath("wallclock_suppressed.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintNoRawRand, ViolatingFixtureFlagsEnginesAndLibcCalls)
{
    const auto report = lintFile(fixturePath("rawrand_violating.cc"));
    const Findings expect = {
        {7, "no-raw-rand"},  {8, "no-raw-rand"}, {9, "no-raw-rand"},
        {10, "no-raw-rand"}, {11, "no-raw-rand"},
        {12, "no-raw-rand"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintNoRawRand, CleanFixtureHasNoFindings)
{
    const auto report = lintFile(fixturePath("rawrand_clean.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintNoRawRand, PolicyWaivesTheSanctionedRandomHome)
{
    const auto text = fixtureText("rawrand_violating.cc");
    const auto report =
        lintText("src/common/random_fixture.cc", text);
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintOrderedIteration, ViolatingFixtureFlagsBothWalks)
{
    const auto report = lintFile(fixturePath("ordered_violating.cc"));
    const Findings expect = {{12, "ordered-iteration"},
                             {14, "ordered-iteration"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintOrderedIteration, OrderedAndLookupOnlyUseIsClean)
{
    const auto report = lintFile(fixturePath("ordered_clean.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintOrderedIteration, SortedSnapshotPatternSuppressesCleanly)
{
    const auto report =
        lintFile(fixturePath("ordered_suppressed.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintOrderedIteration, MemberDeclaredInCompanionHeaderIsCaught)
{
    // The member map lives in member_map.hh; the walk in the .cc
    // must still be caught via the companion-header scan...
    const auto report = lintFile(fixturePath("member_map.cc"));
    const Findings expect = {{10, "ordered-iteration"}};
    EXPECT_EQ(findings(report), expect);

    // ...and is invisible to text-only analysis, which is exactly
    // the blind spot the header scan closes.
    const auto text_only =
        lintText("member_map.cc", fixtureText("member_map.cc"));
    EXPECT_TRUE(text_only.clean());

    // The header itself only declares; nothing iterates there.
    const auto header = lintFile(fixturePath("member_map.hh"));
    EXPECT_TRUE(header.clean()) << header.diagnostics[0].format();
}

TEST(LintOrderedIterationStrict, PortDequePatternIsCleanInSimDomain)
{
    // The sanctioned arbitration shape — FIFO deque + ordered
    // completion multimap — survives the strict src/sim/ policy,
    // iterator extraction from the ordered map included.
    const auto report = lintText("src/sim/simport_clean.cc",
                                 fixtureText("simport_clean.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintOrderedIterationStrict, IteratorExtractionFlaggedOnlyInSim)
{
    const auto text = fixtureText("simport_violating.cc");

    // Strict domain: both the begin() extraction and the range-for.
    const auto sim = lintText("src/sim/simport_violating.cc", text);
    const Findings expect_strict = {{14, "ordered-iteration"},
                                    {17, "ordered-iteration"}};
    EXPECT_EQ(findings(sim), expect_strict);

    // Everywhere else only the range-for is a finding: lookup-style
    // iterator use outside arbitration code stays sanctioned.
    const auto engine =
        lintText("src/trace/simport_violating.cc", text);
    const Findings expect_lax = {{17, "ordered-iteration"}};
    EXPECT_EQ(findings(engine), expect_lax);
}

TEST(LintTypedErrors, FiresOnlyInsideTheApiDomain)
{
    const auto text = fixtureText("typed_errors.cc");

    const auto api = lintText("src/api/fixture.cc", text);
    const Findings expect = {
        {10, "typed-errors"}, {12, "typed-errors"},
        {14, "typed-errors"}, {16, "typed-errors"},
        {18, "typed-errors"}};
    EXPECT_EQ(findings(api), expect);

    // The same text outside src/api/ is policy-clean: qmh_panic and
    // qmh_fatal ARE the documented failure modes there.
    const auto engine = lintText("src/cqla/fixture.cc", text);
    EXPECT_TRUE(engine.clean()) << engine.diagnostics[0].format();
}

TEST(LintTypedErrors, ServerDomainIsEnforcedLikeTheApi)
{
    const auto text = fixtureText("server_typed_errors.cc");

    const auto server = lintText("src/server/fixture.cc", text);
    const Findings expect = {{10, "typed-errors"},
                             {12, "typed-errors"},
                             {14, "typed-errors"}};
    EXPECT_EQ(findings(server), expect);

    // One rule, two domains: the same text labeled src/api/ yields
    // the identical findings.
    const auto api = lintText("src/api/fixture.cc", text);
    EXPECT_EQ(findings(api), expect);

    // Outside both domains the rule stays off.
    const auto engine = lintText("src/net/fixture.cc", text);
    EXPECT_TRUE(engine.clean()) << engine.diagnostics[0].format();
}

TEST(LintBannedHeaders, FlagsEachBannedIncludeOnceAndOnlyReal)
{
    const auto report = lintFile(fixturePath("banned_headers.cc"));
    const Findings expect = {
        {3, "banned-headers"}, {4, "banned-headers"},
        {5, "banned-headers"}, {6, "banned-headers"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintTokenizer, RawStringsSplicesAndSeparatorsAreNotCode)
{
    const auto report = lintFile(fixturePath("tokenizer_edges.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintSuppression, StaleAllowanceExpiresLoudly)
{
    const auto report =
        lintFile(fixturePath("suppression_unused.cc"));
    const Findings expect = {{5, "unused-suppression"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintSuppression, MalformedMarkersNeverSuppress)
{
    const auto report = lintFile(fixturePath("suppression_bad.cc"));
    const Findings expect = {
        {7, "bad-suppression"},  {8, "no-wallclock"},
        {9, "bad-suppression"},  {10, "no-wallclock"},
        {11, "bad-suppression"}, {12, "no-wallclock"}};
    EXPECT_EQ(findings(report), expect);
}

TEST(LintLockDiscipline, BlockingCallsUnderALiveLockAreFlagged)
{
    const auto text = fixtureText("lock_discipline.cc");

    // Every concurrent domain, same findings: the three blocking
    // calls under the guard and the foreign (non-cv) wait. The
    // released-scope read and the cv.wait(lock) stay clean.
    const Findings expect = {{12, "lock-discipline"},
                             {13, "lock-discipline"},
                             {14, "lock-discipline"},
                             {39, "lock-discipline"}};
    for (const char *path :
         {"src/server/fixture.cc", "src/sweep/fixture.cc",
          "src/api/fixture.cc", "src/opt/fixture.cc"})
        EXPECT_EQ(findings(lintText(path, text)), expect) << path;

    // Outside the concurrent domains the rule is off.
    const auto engine = lintText("src/sim/fixture.cc", text);
    EXPECT_TRUE(engine.clean()) << engine.diagnostics[0].format();
}

TEST(LintLockDiscipline, JustifiedAllowanceSuppresses)
{
    const auto report = lintText("src/server/fixture.cc",
                                 fixtureText("lock_suppressed.cc"));
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintLayering, UpwardIncludeAndFacadeBypassAreFindings)
{
    const auto report = lintTree({fixturePath("layer_tree")});

    // Exactly two findings: upward.hh's upward edge and the
    // forbidden server -> circuit skip. circuit -> common (downward)
    // and the allow(layering)-covered upward_allowed.hh stay clean.
    ASSERT_EQ(report.diagnostics.size(), 2u);
    const auto &upward = report.diagnostics[0];
    EXPECT_NE(upward.file.find("common/upward.hh"), std::string::npos);
    EXPECT_EQ(upward.line, 4);
    EXPECT_EQ(upward.rule, "layering");
    EXPECT_NE(upward.message.find("upward dependency"),
              std::string::npos);
    const auto &bypass = report.diagnostics[1];
    EXPECT_NE(bypass.file.find("server/facade_bypass.cc"),
              std::string::npos);
    EXPECT_EQ(bypass.line, 3);
    EXPECT_EQ(bypass.rule, "layering");
    EXPECT_NE(bypass.message.find("facade bypass"),
              std::string::npos);
}

TEST(LintLayering, PeerIncludeCycleIsOneFinding)
{
    const auto report = lintTree({fixturePath("cycle_tree")});
    ASSERT_EQ(report.diagnostics.size(), 1u);
    const auto &cycle = report.diagnostics[0];
    EXPECT_EQ(cycle.rule, "layering");
    EXPECT_NE(cycle.file.find("sched/b.hh"), std::string::npos);
    EXPECT_EQ(cycle.line, 4);
    EXPECT_NE(cycle.message.find("circuit -> sched -> circuit"),
              std::string::npos);
}

TEST(LintLayering, DefaultPolicySkipsUndeclaredModules)
{
    // The layer table does not declare the fixture's alpha and beta,
    // so even their blatant cycle is out of scope: the policy governs
    // the src/ tree, not arbitrary code.
    const auto report = lintTree({fixturePath("cycle_tree")});
    for (const auto &diagnostic : report.diagnostics) {
        EXPECT_EQ(diagnostic.file.find("/alpha/"), std::string::npos)
            << diagnostic.format();
        EXPECT_EQ(diagnostic.file.find("/beta/"), std::string::npos)
            << diagnostic.format();
    }
}

/** lintTree over @p tree's src/, examples/ and tests/, the way the
 * real tree is linted: any other entry directory is read, not linted. */
Report
lintReachTree(const std::string &tree)
{
    return lintTree({tree + "/src", tree + "/examples", tree + "/tests"});
}

TEST(LintReach, TestsNeverReachAModuleOrAFunction)
{
    const auto report = lintReachTree(fixturePath("reach_tree"));

    // core/test_only is included only by a test; testOnly is called
    // only by a test and calledNowhere by nothing. entryCall (called
    // from examples/), moduleHelper (called from entryCall) and
    // core/stale (included by used.cc) are reached. allowed.hh and
    // allowedTestOnly are covered by their allow(); the allow() in
    // stale.hh covers nothing and expires.
    ASSERT_EQ(report.diagnostics.size(), 4u);
    const auto &stale = report.diagnostics[0];
    EXPECT_NE(stale.file.find("core/stale.hh"), std::string::npos);
    EXPECT_EQ(stale.line, 2);
    EXPECT_EQ(stale.rule, "unused-suppression");
    const auto &module = report.diagnostics[1];
    EXPECT_NE(module.file.find("core/test_only.hh"), std::string::npos);
    EXPECT_EQ(module.line, 2);
    EXPECT_EQ(module.rule, "unreachable-module");
    EXPECT_NE(module.message.find("'core/test_only'"), std::string::npos);
    const auto &test_only = report.diagnostics[2];
    EXPECT_NE(test_only.file.find("core/used.hh"), std::string::npos);
    EXPECT_EQ(test_only.line, 9);
    EXPECT_EQ(test_only.rule, "test-only-api");
    EXPECT_NE(test_only.message.find("'testOnly'"), std::string::npos);
    const auto &nowhere = report.diagnostics[3];
    EXPECT_EQ(nowhere.line, 10);
    EXPECT_EQ(nowhere.rule, "test-only-api");
    EXPECT_NE(nowhere.message.find("'calledNowhere'"), std::string::npos);
}

TEST(LintReach, PerfbenchCallerIsReadButNotLinted)
{
    // parseRequest's only non-test caller is perfbench/replay.cc,
    // which is not a lint root: it counts as a reach, and its clock
    // read is not reported.
    const auto fixture = fixturePath("replay_tree");
    const auto report = lintReachTree(fixture);
    for (const auto &diagnostic : report.diagnostics)
        ADD_FAILURE() << diagnostic.format();

    // The same tree without that caller: parseRequest is test-only.
    namespace fs = std::filesystem;
    const auto copy = fs::path(::testing::TempDir()) / "qmh_lint_replay_tree";
    fs::remove_all(copy);
    fs::copy(fixture, copy, fs::copy_options::recursive);
    fs::remove(copy / "perfbench" / "replay.cc");
    const auto without = lintReachTree(copy.string());
    fs::remove_all(copy);
    ASSERT_EQ(without.diagnostics.size(), 1u);
    const auto &finding = without.diagnostics[0];
    EXPECT_NE(finding.file.find("api/service.hh"), std::string::npos);
    EXPECT_EQ(finding.line, 6);
    EXPECT_EQ(finding.rule, "test-only-api");
    EXPECT_NE(finding.message.find("'parseRequest'"), std::string::npos);
}

TEST(LintSarif, CarriesRuleMetadataAndFindings)
{
    const auto report = lintTree({fixturePath("layer_tree")});
    const auto sarif = toSarif(report);
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"id\":\"layering\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\":\"layering\""),
              std::string::npos);
    EXPECT_NE(sarif.find("facade bypass"), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":4"), std::string::npos);
    // Clean reports still carry the tool metadata.
    const auto clean = toSarif(Report{});
    EXPECT_NE(clean.find("\"results\":[]"), std::string::npos);
}

TEST(LintTree, SingleFileRootIsScanned)
{
    const auto report =
        lintTree({fixturePath("wallclock_clean.cc")});
    EXPECT_EQ(report.files_scanned, 1u);
    EXPECT_TRUE(report.clean());
}

TEST(LintTree, MissingRootIsAnIoError)
{
    // A typo'd root must never read as a clean tree.
    const std::string missing =
        fixturePath("no_such_directory_anywhere");
    const auto report =
        lintTree({missing, fixturePath("wallclock_clean.cc")});
    EXPECT_EQ(report.files_scanned, 1u);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].file, missing);
    EXPECT_EQ(report.diagnostics[0].rule, "io-error");
    EXPECT_FALSE(report.clean());
}

TEST(LintTree, TheRealTreeIsCleanWithJustifiedSuppressionsOnly)
{
    // The same invariant the lint_tree ctest enforces, kept here too
    // so a plain `qmh_tests` run catches regressions without CTest.
    const auto report = lintTree({QMH_LINT_SOURCE_DIR "/src",
                                  QMH_LINT_SOURCE_DIR "/bench",
                                  QMH_LINT_SOURCE_DIR "/examples",
                                  QMH_LINT_SOURCE_DIR "/tests"});
    EXPECT_GT(report.files_scanned, 100u);
    for (const auto &diagnostic : report.diagnostics) {
        ADD_FAILURE() << diagnostic.format();
        // perfbench/ and tools/ are read for the reach passes only, so
        // their per-file findings (perfbench's clock reads) never show.
        EXPECT_EQ(diagnostic.file.find("/perfbench/"), std::string::npos);
        EXPECT_EQ(diagnostic.file.find("/tools/"), std::string::npos);
        EXPECT_EQ(diagnostic.message.find("'parseServiceRequest'"),
                  std::string::npos);
    }

    // api::parseServiceRequest's only caller outside tests is
    // perfbench/replay.cc, so the clean report shows that the reach
    // passes read perfbench/ although it is not a lint root.
    namespace fs = std::filesystem;
    const fs::path source_dir(QMH_LINT_SOURCE_DIR);
    std::vector<std::string> named_in;
    const std::string window = "qmh-lint: allow(test-only-api)";
    std::size_t windows = 0;
    for (const char *dir : {"src", "bench", "examples", "perfbench", "tools"})
        for (const auto &entry :
             fs::recursive_directory_iterator(source_dir / dir)) {
            if (!entry.is_regular_file())
                continue;
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream read;
            read << in.rdbuf();
            const std::string text = read.str();
            if (text.find("parseServiceRequest(") != std::string::npos)
                named_in.push_back(fs::relative(entry.path(), source_dir)
                                       .generic_string());
            if (std::string_view(dir) != "src")
                continue;
            for (auto at = text.find(window); at != std::string::npos;
                 at = text.find(window, at + window.size()))
                ++windows;
        }
    std::sort(named_in.begin(), named_in.end());
    const std::vector<std::string> expect = {
        "perfbench/replay.cc", "src/api/service.cc", "src/api/service.hh"};
    EXPECT_EQ(named_in, expect);

    // A ratchet on the src/ functions kept only for a test: a new one
    // raises this count and so is a reviewed change. Lower it when a
    // window goes.
    EXPECT_LE(windows, 4u);
}

} // namespace
} // namespace lint
} // namespace qmh
