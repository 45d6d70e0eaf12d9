/** @file Tests of Eq. 1 and the fidelity budget (paper Section 5.2). */

#include <gtest/gtest.h>

#include "ecc/threshold.hh"

namespace qmh {
namespace ecc {
namespace {

const iontrap::Params params = iontrap::Params::future();

TEST(Eq1, BelowThresholdEncodingHelps)
{
    const double pth = 7.5e-5;
    const double p0 = params.averageFailure();
    ASSERT_LT(p0, pth);
    EXPECT_LT(localFailureRate(1, p0, pth), p0);
    EXPECT_LT(localFailureRate(2, p0, pth), localFailureRate(1, p0, pth));
}

TEST(Eq1, DoubleExponentialSuppression)
{
    const double pth = 7.5e-5;
    const double p0 = 1e-8;
    const double p1 = localFailureRate(1, p0, pth);
    const double p2 = localFailureRate(2, p0, pth);
    // Pf(2)/Pf(1) ~ (p0/pth)^2 / r, far more than the level-1 gain.
    EXPECT_LT(p2 / p1, p1 / p0);
}

TEST(Eq1, LevelZeroIsPhysicalRate)
{
    EXPECT_DOUBLE_EQ(localFailureRate(0, 1e-6, 7.5e-5), 1e-6);
}

TEST(Eq1, AboveThresholdEncodingHurts)
{
    const double pth = 7.5e-5;
    const double p0 = 10.0 * pth;
    EXPECT_GT(localFailureRate(1, p0, pth) / 1.0,
              p0 / 12.0);  // grows despite the 1/r factor
}

TEST(FidelityBudget, SteaneTwoPercentTimeAtLevel1)
{
    // The paper's headline: for 1024-bit factoring the system "can
    // spend only 2% of the total execution time in level 1".
    const FidelityBudget budget(Code::steane(), params,
                                shorKqOps(1024));
    EXPECT_NEAR(budget.maxLevel1TimeFraction(), 0.02, 0.005);
    EXPECT_NEAR(budget.maxLevel1OpsFraction(), 2.0 / 3.0, 0.05);
}

TEST(FidelityBudget, SteaneEqualOpsSplitIsSafe)
{
    // Paper: "if all operations performed by the CQLA were equally
    // divided between level 1 and level 2 operations, the system will
    // maintain its fidelity".
    const FidelityBudget budget(Code::steane(), params,
                                shorKqOps(1024));
    EXPECT_GT(budget.maxLevel1OpsFraction(), 0.5);
    EXPECT_LT(budget.level1TimeFraction(0.5),
              budget.maxLevel1TimeFraction());
}

TEST(FidelityBudget, BaconShorMoreFavourable)
{
    const FidelityBudget steane(Code::steane(), params,
                                shorKqOps(1024));
    const FidelityBudget bs(Code::baconShor(), params,
                            shorKqOps(1024));
    EXPECT_GT(bs.maxLevel1OpsFraction(),
              steane.maxLevel1OpsFraction());
    EXPECT_GT(bs.recommendedLevel1AddFraction(),
              steane.recommendedLevel1AddFraction());
}

TEST(FidelityBudget, Level2AlwaysFeasibleAtDesignPoint)
{
    // A level is feasible for the whole application when the expected
    // number of logical failures, ops x Eq. 1 rate, is at most one.
    const double ops = shorKqOps(1024);
    for (const auto kind :
         {CodeKind::Steane713, CodeKind::BaconShor913}) {
        const FidelityBudget budget(Code::byKind(kind), params, ops);
        EXPECT_LE(ops * budget.failureRate(2), 1.0);
    }
    // Steane cannot run everything at level 1; Bacon-Shor's higher
    // threshold just barely can ("more favourable").
    const FidelityBudget steane(Code::steane(), params, ops);
    EXPECT_GT(ops * steane.failureRate(1), 1.0);
    const FidelityBudget bs(Code::baconShor(), params, ops);
    EXPECT_LE(ops * bs.failureRate(1), 1.0);
}

TEST(FidelityBudget, TimeFractionMonotoneInOpsFraction)
{
    const FidelityBudget budget(Code::steane(), params,
                                shorKqOps(256));
    double prev = -1.0;
    for (double f = 0.0; f <= 1.0; f += 0.1) {
        const double t = budget.level1TimeFraction(f);
        EXPECT_GT(t, prev);
        prev = t;
    }
    EXPECT_DOUBLE_EQ(budget.level1TimeFraction(0.0), 0.0);
    EXPECT_DOUBLE_EQ(budget.level1TimeFraction(1.0), 1.0);
}

TEST(FidelityBudget, SmallerProblemsLoosenTheBudget)
{
    const FidelityBudget big(Code::steane(), params, shorKqOps(1024));
    const FidelityBudget small(Code::steane(), params, shorKqOps(64));
    EXPECT_GE(small.maxLevel1OpsFraction(),
              big.maxLevel1OpsFraction());
}

TEST(ShorKq, GrowsSuperQuadratically)
{
    EXPECT_GT(shorKqOps(2048) / shorKqOps(1024), 8.0);
    EXPECT_GT(shorKqOps(1024), 1e11);
    EXPECT_LT(shorKqOps(1024), 1e13);
}

TEST(Eq1Death, RejectsBadParameters)
{
    EXPECT_DEATH(localFailureRate(1, 0.0, 7.5e-5), "positive");
    EXPECT_DEATH(localFailureRate(-1, 1e-8, 7.5e-5), "negative");
}

} // namespace
} // namespace ecc
} // namespace qmh
