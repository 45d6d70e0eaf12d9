/** @file Unit tests for the ion-trap physical layer (paper Table 1). */

#include <gtest/gtest.h>

#include <stdexcept>

#include "iontrap/geometry.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace iontrap {
namespace {

TEST(Params, FutureValuesMatchPaperTable1)
{
    const auto p = Params::future();
    EXPECT_DOUBLE_EQ(p.single_gate_us, 1.0);
    EXPECT_DOUBLE_EQ(p.double_gate_us, 10.0);
    EXPECT_DOUBLE_EQ(p.measure_us, 10.0);
    EXPECT_DOUBLE_EQ(p.move_us, 10.0);
    EXPECT_DOUBLE_EQ(p.single_gate_fail, 1e-8);
    EXPECT_DOUBLE_EQ(p.double_gate_fail, 1e-7);
    EXPECT_DOUBLE_EQ(p.measure_fail, 1e-8);
    EXPECT_DOUBLE_EQ(p.move_fail_per_um, 5e-8);
    EXPECT_DOUBLE_EQ(p.trap_size_um, 5.0);
    EXPECT_DOUBLE_EQ(p.cycle_us, 10.0);
}

TEST(Params, CurrentTechnologyValuesMatchPaperTable1)
{
    const auto p = Params::currentTechnology();
    EXPECT_DOUBLE_EQ(p.double_gate_fail, 0.03);
    EXPECT_DOUBLE_EQ(p.measure_us, 200.0);
    EXPECT_DOUBLE_EQ(p.move_us, 20.0);
    EXPECT_DOUBLE_EQ(p.trap_size_um, 200.0);
}

TEST(Params, RegionDimensionIs50Microns)
{
    const auto p = Params::future();
    // ~10 electrodes x 5 um traps = 50 um region (paper Section 2.2).
    EXPECT_DOUBLE_EQ(p.regionDimUm(), 50.0);
    EXPECT_DOUBLE_EQ(p.regionAreaUm2(), 2500.0);
}

TEST(Params, MovementFailurePerRegionIsMicroScale)
{
    const auto p = Params::future();
    // Paper: "order of 10^-6 per fundamental move operation".
    EXPECT_NEAR(p.moveFailurePerRegion(), 2.5e-6, 1e-7);
}

TEST(Params, OpCyclesRoundUp)
{
    const auto p = Params::future();
    EXPECT_EQ(p.opCycles(PhysOp::SingleGate), 1);
    EXPECT_EQ(p.opCycles(PhysOp::DoubleGate), 1);
    EXPECT_EQ(p.opCycles(PhysOp::Measure), 1);
    const auto current = Params::currentTechnology();
    EXPECT_EQ(current.opCycles(PhysOp::Measure), 20);
    EXPECT_EQ(current.opCycles(PhysOp::Move), 2);
}

TEST(Params, AverageFailureIsMeanOfFourRates)
{
    const auto p = Params::future();
    EXPECT_NEAR(p.averageFailure(),
                (1e-8 + 1e-7 + 1e-8 + 5e-8) / 4.0, 1e-12);
}

class PhysOpNames : public ::testing::TestWithParam<PhysOp>
{};

TEST_P(PhysOpNames, HasNameAndTime)
{
    const auto p = Params::future();
    EXPECT_NE(physOpName(GetParam()), nullptr);
    EXPECT_GT(p.opTimeUs(GetParam()), 0.0);
    EXPECT_GE(p.opFailure(GetParam()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllOps, PhysOpNames,
                         ::testing::Values(PhysOp::SingleGate,
                                           PhysOp::DoubleGate,
                                           PhysOp::Measure, PhysOp::Move,
                                           PhysOp::Split,
                                           PhysOp::Cooling));

TEST(TrapGrid, MoveLatencyIncludesSplitAndCooling)
{
    const auto p = Params::future();
    TrapGrid grid(10, 10, p);
    EXPECT_EQ(grid.moveLatencyCycles({0, 0}, {0, 0}), 0);
    const int one_hop = grid.moveLatencyCycles({0, 0}, {1, 0});
    const int two_hops = grid.moveLatencyCycles({0, 0}, {1, 1});
    EXPECT_EQ(two_hops - one_hop, p.opCycles(PhysOp::Move));
    EXPECT_GT(one_hop, p.opCycles(PhysOp::Move));
}

TEST(TrapGrid, Manhattan)
{
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({2, 2}, {2, 2}), 0);
    EXPECT_EQ(manhattan({-1, 0}, {1, 0}), 2);
}

TEST(TrapGridDeath, RejectsBadDimensions)
{
    const auto p = Params::future();
    EXPECT_THROW(TrapGrid(0, 5, p), std::invalid_argument);
}

} // namespace
} // namespace iontrap
} // namespace qmh
