/** @file CQLA area/performance/hierarchy model tests (Tables 4, 5). */

#include <ostream>

#include <gtest/gtest.h>

#include "cqla/area_model.hh"
#include "cqla/hierarchy.hh"
#include "cqla/perf_model.hh"

namespace qmh {
namespace cqla {
namespace {

const iontrap::Params params = iontrap::Params::future();

TEST(AreaModel, MemoryDenserThanCompute)
{
    const AreaModel area(params);
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913}) {
        const auto code = ecc::Code::byKind(kind);
        const double mem = area.memoryQubitAreaMm2(code, 2);
        const double block_per_qubit =
            area.computeBlockAreaMm2(code, 2) /
            AreaModel::qubits_per_block;
        EXPECT_LT(mem, block_per_qubit / 3.0);
    }
}

TEST(AreaModel, QlaDominatesCqla)
{
    const AreaModel area(params);
    const auto steane = ecc::Code::steane();
    for (int n : {32, 256, 1024}) {
        const auto blocks =
            PerformanceModel::paperBlockCounts(n).first;
        EXPECT_GT(area.areaReductionFactor(steane, n, blocks), 3.0);
    }
}

struct AreaRow
{
    int n;
    unsigned blocks;
    double paper_steane;
    double paper_bacon_shor;
};

void
PrintTo(const AreaRow &row, std::ostream *os)
{
    *os << "n" << row.n << "_" << row.blocks << "blocks";
}

class Table4Area : public ::testing::TestWithParam<AreaRow>
{};

TEST_P(Table4Area, WithinTenPercentOfPaper)
{
    const AreaModel area(params);
    const auto row = GetParam();
    const double steane = area.areaReductionFactor(
        ecc::Code::steane(), row.n, row.blocks);
    const double bs = area.areaReductionFactor(
        ecc::Code::baconShor(), row.n, row.blocks);
    EXPECT_NEAR(steane, row.paper_steane, 0.10 * row.paper_steane);
    EXPECT_NEAR(bs, row.paper_bacon_shor,
                0.10 * row.paper_bacon_shor);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4Area,
    ::testing::Values(AreaRow{32, 4, 6.69, 9.80},
                      AreaRow{32, 9, 3.22, 4.74},
                      AreaRow{64, 9, 6.36, 9.32},
                      AreaRow{64, 16, 3.79, 5.56},
                      AreaRow{128, 16, 7.24, 10.6},
                      AreaRow{256, 36, 6.65, 9.47},
                      AreaRow{512, 64, 7.42, 10.87},
                      AreaRow{1024, 100, 9.14, 13.4},
                      AreaRow{1024, 121, 7.81, 11.45}));

TEST(AreaModel, HeadlineThirteenX)
{
    // "up to a factor of thirteen savings in area".
    const AreaModel area(params);
    const double bs = area.areaReductionFactor(
        ecc::Code::baconShor(), 1024, 100);
    EXPECT_GT(bs, 11.0);
    EXPECT_LT(bs, 15.0);
}

TEST(AreaModel, CacheAndTransferChargeable)
{
    const AreaModel area(params);
    const auto code = ecc::Code::steane();
    const auto plain = area.cqlaArea(code, 256, 49);
    const auto full = area.cqlaArea(code, 256, 49, 900, 10);
    EXPECT_GT(full.cache_mm2, 0.0);
    EXPECT_GT(full.transfer_mm2, 0.0);
    EXPECT_GT(full.total(), plain.total());
    // Level-1 cache tiles are small: the hierarchy costs little area.
    EXPECT_LT(full.total(), 1.3 * plain.total());
}

struct SpeedRow
{
    int n;
    unsigned blocks;
    double paper_steane;
    double paper_bacon_shor;
};

void
PrintTo(const SpeedRow &row, std::ostream *os)
{
    *os << "n" << row.n << "_" << row.blocks << "blocks";
}

class Table4Speedup : public ::testing::TestWithParam<SpeedRow>
{};

TEST_P(Table4Speedup, WithinTenPercentOfPaper)
{
    PerformanceModel perf(params);
    const auto row = GetParam();
    EXPECT_NEAR(perf.speedup(ecc::Code::steane(), row.n, row.blocks),
                row.paper_steane, 0.10 * row.paper_steane);
    EXPECT_NEAR(
        perf.speedup(ecc::Code::baconShor(), row.n, row.blocks),
        row.paper_bacon_shor, 0.12 * row.paper_bacon_shor);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table4Speedup,
    ::testing::Values(SpeedRow{32, 4, 0.54, 1.47},
                      SpeedRow{32, 9, 0.97, 2.9},
                      SpeedRow{64, 9, 0.70, 1.92},
                      SpeedRow{64, 16, 0.98, 3.0},
                      SpeedRow{128, 16, 0.72, 1.97},
                      SpeedRow{256, 36, 0.92, 2.51},
                      SpeedRow{512, 64, 0.92, 2.50},
                      SpeedRow{1024, 100, 0.80, 2.19},
                      SpeedRow{1024, 121, 0.97, 2.65}));

TEST(PerformanceModel, BaconShorCapsAtEcRatio)
{
    // With enough blocks the Bacon-Shor speedup approaches the EC
    // latency ratio (0.3 s / 0.1 s = 3).
    PerformanceModel perf(params);
    const double sp =
        perf.speedup(ecc::Code::baconShor(), 256, 4096);
    EXPECT_NEAR(sp, 3.0, 0.05);
}

TEST(PerformanceModel, BoundedMakespanMonotonic)
{
    PerformanceModel perf(params);
    const auto &timing = perf.adderTiming(128);
    double prev = 1e300;
    for (unsigned b : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
        const double mk = timing.boundedMakespanSteps(b);
        EXPECT_LE(mk, prev);
        prev = mk;
    }
    EXPECT_DOUBLE_EQ(
        timing.boundedMakespanSteps(sched::unlimited_blocks),
        static_cast<double>(timing.critical_path_steps));
}

TEST(PerformanceModel, UtilizationTradeoff)
{
    // Fig. 6a: utilization falls as blocks grow.
    PerformanceModel perf(params);
    double prev = 2.0;
    for (unsigned b : {4u, 16u, 36u, 100u, 196u}) {
        const double u = perf.utilization(256, b);
        EXPECT_LE(u, prev);
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
        prev = u;
    }
    // Small block counts stay work-bound (full utilization); very
    // large ones waste most block-steps.
    EXPECT_NEAR(perf.utilization(256, 4), 1.0, 1e-9);
    EXPECT_LT(perf.utilization(256, 196), 0.4);
}

TEST(PerformanceModel, ScheduledUtilizationBelowBound)
{
    PerformanceModel perf(params);
    for (unsigned b : {9u, 49u}) {
        EXPECT_LE(perf.scheduledUtilization(256, b),
                  perf.utilization(256, b) + 1e-9);
    }
}

TEST(PerformanceModel, GainProductIsProduct)
{
    PerformanceModel perf(params);
    const auto row = perf.table4Row(256, 36);
    EXPECT_NEAR(row.gain_product_steane,
                row.area_reduced_steane * row.speedup_steane, 1e-9);
    EXPECT_NEAR(row.gain_product_bacon_shor,
                row.area_reduced_bacon_shor * row.speedup_bacon_shor,
                1e-9);
    EXPECT_GT(row.gain_product_bacon_shor, row.gain_product_steane);
}

TEST(PerformanceModelDeath, UnknownSizeRejected)
{
    EXPECT_EXIT(PerformanceModel::paperBlockCounts(77),
                ::testing::ExitedWithCode(1), "Table 4");
}

/** One paper cell: its value and the model's band around it, in
 *  percent of the paper value. */
struct PaperCell
{
    double value;
    double band_pct;
};

/**
 * One Table-5 row of the paper (arXiv quant-ph/0604070, Sec. 5) at
 * the block count paperBlocks() pairs with its size. Each band is the
 * model's present distance from the paper rounded down to a whole
 * percent, plus two points, so a model change that moves any cell by
 * a couple of percent of the paper value shows here. The wide bands
 * are the outliers EXPERIMENTS.md names with their suspected causes.
 */
struct Table5Paper
{
    ecc::CodeKind code;
    unsigned channels;
    int n;
    PaperCell s1, s2, adder, area, gain;
};

void
PrintTo(const Table5Paper &row, std::ostream *os)
{
    *os << (row.code == ecc::CodeKind::Steane713 ? "steane" : "bacon_shor")
        << "_" << row.channels << "ch_n" << row.n;
}

class Table5Row : public ::testing::TestWithParam<Table5Paper>
{};

TEST_P(Table5Row, EveryCellWithinItsBand)
{
    HierarchyModel hier(params);
    const auto &paper = GetParam();
    const auto row = hier.row(ecc::Code::byKind(paper.code), paper.n,
                              paper.channels,
                              HierarchyModel::paperBlocks(paper.n));
    const auto expect = [](const char *column, double model,
                           PaperCell cell) {
        EXPECT_NEAR(model, cell.value, cell.band_pct / 100.0 * cell.value)
            << column;
    };
    expect("level1_speedup", row.level1_speedup, paper.s1);
    expect("level2_speedup", row.level2_speedup, paper.s2);
    expect("adder_speedup", row.adder_speedup, paper.adder);
    expect("area_reduced", row.area_reduced, paper.area);
    expect("gain_product", row.gain_product, paper.gain);
}

constexpr auto steane = ecc::CodeKind::Steane713;
constexpr auto bacon_shor = ecc::CodeKind::BaconShor913;

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table5Row,
    ::testing::Values(
        Table5Paper{steane, 10, 256, {17.417, 5}, {0.98, 4}, {6.25, 2},
                    {5.07, 6}, {31.68, 6}},
        Table5Paper{steane, 10, 512, {17.41, 8}, {0.97, 5}, {6.33, 9},
                    {6.06, 7}, {38.38, 3}},
        // Outliers: S2 (the paper's Table 4 has 0.80 here), adder and
        // gain (the paper's adder cell implies a level-1 share of 0.23).
        Table5Paper{steane, 10, 1024, {18.18, 12}, {0.88, 15},
                    {4.93, 47}, {9.14, 6}, {45.06, 40}},
        // Outlier: gain (the paper's 24.99 is not its 5.07 x 4.05).
        Table5Paper{steane, 5, 256, {10.409, 13}, {0.98, 4}, {4.05, 10},
                    {5.07, 6}, {24.99, 30}},
        Table5Paper{steane, 5, 512, {10.408, 4}, {0.97, 5}, {4.04, 2},
                    {6.06, 7}, {24.48, 6}},
        // Outliers: as at 10 channels (implied level-1 share 0.20).
        Table5Paper{steane, 5, 1024, {10.96, 4}, {0.88, 15}, {2.94, 45},
                    {9.14, 6}, {26.87, 39}},
        // Outliers: S2 (the paper's Table 4 has 2.98 here) and the
        // adder cell that mixes it in.
        Table5Paper{bacon_shor, 10, 256, {9.61, 8}, {1.53, 98},
                    {5.92, 20}, {7.43, 9}, {43.99, 11}},
        // Outliers: S2 (Table 4: 2.91), adder and gain (the paper's
        // adder cell exceeds the 2/3 mix of its own S1 and S2).
        Table5Paper{bacon_shor, 10, 512, {9.61, 6}, {2.28, 33},
                    {8.82, 15}, {8.87, 10}, {78.23, 22}},
        // Outlier: S2 (Table 4: 2.19).
        Table5Paper{bacon_shor, 10, 1024, {10.15, 9}, {2.00, 16},
                    {8.10, 2}, {13.40, 10}, {108.53, 10}},
        Table5Paper{bacon_shor, 5, 256, {5.17, 9}, {1.53, 98},
                    {3.66, 16}, {7.43, 9}, {27.19, 7}},
        // Outliers: as at 10 channels; here the paper's adder cell
        // exceeds its own S1.
        Table5Paper{bacon_shor, 5, 512, {5.17, 5}, {2.28, 33},
                    {5.45, 18}, {8.87, 10}, {48.37, 25}},
        Table5Paper{bacon_shor, 5, 1024, {5.49, 9}, {2.00, 16},
                    {4.99, 8}, {13.40, 10}, {66.90, 16}}));

TEST(HierarchyModel, MoreChannelsFasterLevel1)
{
    HierarchyModel hier(params);
    const auto code = ecc::Code::steane();
    EXPECT_GT(hier.level1Speedup(code, 512, 10),
              hier.level1Speedup(code, 512, 5));
    EXPECT_GT(hier.level1Speedup(code, 512, 20),
              hier.level1Speedup(code, 512, 10));
}

TEST(HierarchyModel, AddMixMatchesPaperPolicy)
{
    HierarchyModel hier(params);
    EXPECT_NEAR(hier.level1AddFraction(ecc::Code::steane(), 1024),
                1.0 / 3.0, 0.02);
    EXPECT_NEAR(hier.level1AddFraction(ecc::Code::baconShor(), 1024),
                2.0 / 3.0, 0.02);
    // The design point pins the mix for smaller runs too.
    EXPECT_NEAR(hier.level1AddFraction(ecc::Code::steane(), 256),
                1.0 / 3.0, 0.02);
}

TEST(HierarchyModel, HeadlineEightXSpeedup)
{
    // "a speedup of about 8" (Bacon-Shor, 10 parallel transfers).
    HierarchyModel hier(params);
    const auto code = ecc::Code::baconShor();
    const double sA =
        hier.adderSpeedup(code, 1024, 10, HierarchyModel::paperBlocks(1024));
    EXPECT_GT(sA, 7.0);
    EXPECT_LT(sA, 9.5);
}

TEST(HierarchyModel, RowIsSelfConsistent)
{
    HierarchyModel hier(params);
    const auto code = ecc::Code::baconShor();
    const auto row = hier.row(code, 512, 10, 81);
    EXPECT_NEAR(row.adder_speedup,
                row.level1_add_fraction * row.level1_speedup +
                    (1.0 - row.level1_add_fraction) *
                        row.level2_speedup,
                1e-9);
    EXPECT_NEAR(row.gain_product,
                row.area_reduced * row.adder_speedup, 1e-9);
}

TEST(HierarchyModel, GainProductBeatsTable4)
{
    // The hierarchy multiplies the specialization gains.
    HierarchyModel hier(params);
    PerformanceModel perf(params);
    const auto code = ecc::Code::baconShor();
    const auto t5 = hier.row(code, 1024, 10, 100);
    const auto t4 = perf.table4Row(1024, 100);
    EXPECT_GT(t5.gain_product, t4.gain_product_bacon_shor * 2.0);
}

} // namespace
} // namespace cqla
} // namespace qmh
