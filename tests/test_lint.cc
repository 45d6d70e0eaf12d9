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

#include <fstream>
#include <sstream>

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
        "layering",          "unchecked-outcome",
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
        {14, "typed-errors"}, {16, "typed-errors"}};
    EXPECT_EQ(findings(api), expect);

    // The same text outside src/api/ is policy-clean: qmh_panic IS
    // the documented failure mode for invariant violations there.
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

/** Layer policy used by the layer_tree fixture tests. */
constexpr const char *kFixtureLayerPolicy =
    "layer low\n"
    "layer mid\n"
    "layer top\n"
    "forbid top: low\n";

TEST(LintLayering, UpwardIncludeAndFacadeBypassAreFindings)
{
    TreeOptions options;
    options.layer_policy = kFixtureLayerPolicy;
    const auto report =
        lintTree({fixturePath("layer_tree")}, options);

    // Exactly two findings: upward.hh's upward edge and the
    // forbidden top -> low skip. mid -> low (downward) and the
    // allow(layering)-covered upward_allowed.hh stay clean.
    ASSERT_EQ(report.diagnostics.size(), 2u);
    const auto &upward = report.diagnostics[0];
    EXPECT_NE(upward.file.find("low/upward.hh"), std::string::npos);
    EXPECT_EQ(upward.line, 4);
    EXPECT_EQ(upward.rule, "layering");
    EXPECT_NE(upward.message.find("upward dependency"),
              std::string::npos);
    const auto &bypass = report.diagnostics[1];
    EXPECT_NE(bypass.file.find("top/facade_bypass.cc"),
              std::string::npos);
    EXPECT_EQ(bypass.line, 3);
    EXPECT_EQ(bypass.rule, "layering");
    EXPECT_NE(bypass.message.find("facade bypass"),
              std::string::npos);
}

TEST(LintLayering, PeerIncludeCycleIsOneFinding)
{
    TreeOptions options;
    options.layer_policy = "layer alpha beta\n";
    const auto report =
        lintTree({fixturePath("cycle_tree")}, options);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    const auto &cycle = report.diagnostics[0];
    EXPECT_EQ(cycle.rule, "layering");
    EXPECT_NE(cycle.file.find("beta/b.hh"), std::string::npos);
    EXPECT_EQ(cycle.line, 4);
    EXPECT_NE(cycle.message.find("alpha -> beta -> alpha"),
              std::string::npos);
}

TEST(LintLayering, PolicyParseProblemsAreFindings)
{
    TreeOptions options;
    options.layer_policy =
        "layers low\n"          // unknown directive
        "layer low low\n"       // duplicate module
        "forbid ghost: low\n";  // undeclared module
    const auto report =
        lintTree({fixturePath("layer_tree")}, options);
    const Findings expect = {
        {1, "layering"}, {2, "layering"}, {3, "layering"}};
    EXPECT_EQ(findings(report), expect);
    for (const auto &diagnostic : report.diagnostics)
        EXPECT_EQ(diagnostic.file, "<layer-policy>");
}

TEST(LintLayering, DefaultPolicySkipsUndeclaredModules)
{
    // Under the built-in policy the fixture modules (alpha, beta)
    // are not declared, so even a blatant cycle is out of scope:
    // the policy governs the src/ tree, not arbitrary code.
    const auto report = lintTree({fixturePath("cycle_tree")});
    EXPECT_TRUE(report.clean()) << report.diagnostics[0].format();
}

TEST(LintUncheckedOutcome, DiscardFlaggedAmbiguousAndBoundSkipped)
{
    const auto report = lintTree({fixturePath("outcome_tree")});

    // use.cc:10 discards fetchThing's Outcome. The bound call, the
    // ambiguous name (void overload in beta/other.hh) and the plain
    // helper stay clean; use.cc:16 is covered by its allow(); the
    // stale marker in stale.cc expires as unused-suppression.
    ASSERT_EQ(report.diagnostics.size(), 2u);
    const auto &stale = report.diagnostics[0];
    EXPECT_NE(stale.file.find("alpha/stale.cc"), std::string::npos);
    EXPECT_EQ(stale.line, 11);
    EXPECT_EQ(stale.rule, "unused-suppression");
    const auto &discard = report.diagnostics[1];
    EXPECT_NE(discard.file.find("alpha/use.cc"), std::string::npos);
    EXPECT_EQ(discard.line, 10);
    EXPECT_EQ(discard.rule, "unchecked-outcome");
    EXPECT_NE(discard.message.find("fetchThing"), std::string::npos);
}

TEST(LintSarif, CarriesRuleMetadataAndFindings)
{
    TreeOptions options;
    options.layer_policy = kFixtureLayerPolicy;
    const auto report =
        lintTree({fixturePath("layer_tree")}, options);
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
    for (const auto &diagnostic : report.diagnostics)
        ADD_FAILURE() << diagnostic.format();
}

} // namespace
} // namespace lint
} // namespace qmh
