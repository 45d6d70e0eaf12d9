/** @file Tests of the code metrics against the paper's Table 2. */

#include <gtest/gtest.h>

#include "ecc/code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace ecc {
namespace {

const iontrap::Params params = iontrap::Params::future();

TEST(SteaneCode, BasicParameters)
{
    const auto c = Code::steane();
    EXPECT_EQ(c.n(), 7);
    EXPECT_EQ(c.shortName(), "7");
}

TEST(BaconShorCode, BasicParameters)
{
    const auto c = Code::baconShor();
    EXPECT_EQ(c.n(), 9);
    EXPECT_EQ(c.shortName(), "9");
}

TEST(CodeTable2, IonCountsMatchPaper)
{
    const auto steane = Code::steane();
    EXPECT_EQ(steane.dataIons(1), 7);
    EXPECT_EQ(steane.ancillaIons(1), 21);
    EXPECT_EQ(steane.dataIons(2), 49);
    EXPECT_EQ(steane.ancillaIons(2), 441);
    const auto bs = Code::baconShor();
    EXPECT_EQ(bs.dataIons(1), 9);
    EXPECT_EQ(bs.ancillaIons(1), 12);
    EXPECT_EQ(bs.dataIons(2), 81);
    EXPECT_EQ(bs.ancillaIons(2), 298);
}

TEST(CodeTable2, EcTimesMatchPaper)
{
    // Paper: Steane 3.1e-3 / 0.3 s; Bacon-Shor 1.2e-3 / 0.1 s.
    const auto steane = Code::steane();
    EXPECT_NEAR(steane.ecTime(1, params), 3.1e-3, 0.1e-3);
    EXPECT_NEAR(steane.ecTime(2, params), 0.3, 0.01);
    const auto bs = Code::baconShor();
    EXPECT_NEAR(bs.ecTime(1, params), 1.2e-3, 0.05e-3);
    EXPECT_NEAR(bs.ecTime(2, params), 0.1, 0.005);
}

TEST(CodeTable2, TransversalGateTimesMatchPaper)
{
    // Paper: Steane 6.2e-3 / 0.5 s; Bacon-Shor 2.4e-3 / 0.2 s.
    const auto steane = Code::steane();
    EXPECT_NEAR(steane.transversalGateTime(1, params), 6.2e-3, 0.3e-3);
    EXPECT_NEAR(steane.transversalGateTime(2, params), 0.5, 0.12);
    const auto bs = Code::baconShor();
    EXPECT_NEAR(bs.transversalGateTime(1, params), 2.4e-3, 0.15e-3);
    EXPECT_NEAR(bs.transversalGateTime(2, params), 0.2, 0.01);
}

TEST(CodeTable2, QubitAreasMatchPaper)
{
    // Paper: Steane 0.2 / 3.4 mm^2; Bacon-Shor 0.1 / 2.4 mm^2.
    const auto steane = Code::steane();
    EXPECT_NEAR(steane.qubitAreaMm2(1, params), 0.2, 0.02);
    EXPECT_NEAR(steane.qubitAreaMm2(2, params), 3.4, 0.05);
    const auto bs = Code::baconShor();
    EXPECT_NEAR(bs.qubitAreaMm2(1, params), 0.13, 0.04);
    EXPECT_NEAR(bs.qubitAreaMm2(2, params), 2.4, 0.05);
}

TEST(Code, GateStepDominatedByEc)
{
    for (const auto kind :
         {CodeKind::Steane713, CodeKind::BaconShor913}) {
        const auto c = Code::byKind(kind);
        for (Level l = 1; l <= 2; ++l) {
            EXPECT_GT(c.gateStepTime(l, params), c.ecTime(l, params));
            EXPECT_LT(c.gateStepTime(l, params),
                      1.1 * c.ecTime(l, params));
        }
    }
}

TEST(Code, MemoryProvisioningReducesIons)
{
    const auto c = Code::steane();
    const double dense = c.ionsPerDataQubit(2, 1.0 / 8.0);
    const double full = c.ionsPerDataQubit(2, 2.0);
    EXPECT_LT(dense, full);
    EXPECT_DOUBLE_EQ(full, 49.0 + 441.0);
    EXPECT_DOUBLE_EQ(dense, 49.0 + 441.0 / 16.0);
}

TEST(Code, BaconShorFasterButBigger)
{
    const auto steane = Code::steane();
    const auto bs = Code::baconShor();
    // Faster EC at both levels...
    EXPECT_LT(bs.ecTime(1, params), steane.ecTime(1, params));
    EXPECT_LT(bs.ecTime(2, params), steane.ecTime(2, params));
    // ...more data ions to teleport...
    EXPECT_GT(bs.teleportIons(2), steane.teleportIons(2));
    // ...smaller overall tile.
    EXPECT_LT(bs.qubitAreaMm2(2, params), steane.qubitAreaMm2(2, params));
}

class CodeLevels
    : public ::testing::TestWithParam<std::tuple<CodeKind, Level>>
{};

TEST_P(CodeLevels, EcTimeGrowsRoughlyHundredfoldPerLevel)
{
    const auto code = Code::byKind(std::get<0>(GetParam()));
    const auto level = std::get<1>(GetParam());
    const double ratio = code.ecTime(level + 1, params) /
                         code.ecTime(level, params);
    EXPECT_GT(ratio, 50.0);
    EXPECT_LT(ratio, 150.0);
}

TEST_P(CodeLevels, AreaGrowsWithLevel)
{
    const auto code = Code::byKind(std::get<0>(GetParam()));
    const auto level = std::get<1>(GetParam());
    EXPECT_GT(code.qubitAreaMm2(level + 1, params),
              code.qubitAreaMm2(level, params));
}

INSTANTIATE_TEST_SUITE_P(
    BothCodes, CodeLevels,
    ::testing::Combine(::testing::Values(CodeKind::Steane713,
                                         CodeKind::BaconShor913),
                       ::testing::Values(1, 2)));

TEST(CodeDeath, NegativeLevelPanics)
{
    const auto c = Code::steane();
    EXPECT_DEATH(c.dataIons(-1), "negative");
}

} // namespace
} // namespace ecc
} // namespace qmh
