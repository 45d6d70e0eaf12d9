/** @file Interconnect tests: teleport, transfer (Table 3), bandwidth
 * (Fig. 6b) and the mesh all-to-all. */

#include <gtest/gtest.h>

#include "net/bandwidth.hh"
#include "net/mesh.hh"
#include "net/teleport.hh"
#include "net/transfer.hh"

namespace qmh {
namespace net {
namespace {

const iontrap::Params params = iontrap::Params::future();

TEST(Teleport, ArrivalEcDominates)
{
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913}) {
        const auto code = ecc::Code::byKind(kind);
        for (ecc::Level level = 1; level <= 2; ++level) {
            const TeleportModel model(code, level, params);
            EXPECT_GT(model.teleportTime(),
                      code.ecTime(level, params));
            EXPECT_LT(model.transportTime(),
                      0.5 * code.ecTime(level, params))
                << "transport should be cheap vs EC";
        }
    }
}

TEST(Teleport, NoMemoryWall)
{
    // Paper Section 6: a communication step does not exceed a gate
    // step (gate + EC), so communication hides behind computation.
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913}) {
        const auto code = ecc::Code::byKind(kind);
        const TeleportModel model(code, 2, params);
        EXPECT_LE(model.teleportTime(),
                  1.1 * code.gateStepTime(2, params));
    }
}

TEST(Teleport, BaconShorTransportSlower)
{
    const TeleportModel steane(ecc::Code::steane(), 2, params);
    const TeleportModel bs(ecc::Code::baconShor(), 2, params);
    // More data ions to shuttle (81 vs 49).
    EXPECT_GT(bs.transportTime(), steane.transportTime());
}

TEST(Transfer, DiagonalIsZero)
{
    const TransferNetwork net(params);
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913})
        for (ecc::Level level = 1; level <= 2; ++level)
            EXPECT_EQ(net.transferTime({kind, level}, {kind, level}),
                      0.0);
}

TEST(Transfer, Table3Values)
{
    // Paper Table 3 (values rounded to one digit there).
    const TransferNetwork net(params);
    const Encoding s1{ecc::CodeKind::Steane713, 1};
    const Encoding s2{ecc::CodeKind::Steane713, 2};
    const Encoding b1{ecc::CodeKind::BaconShor913, 1};
    const Encoding b2{ecc::CodeKind::BaconShor913, 2};
    EXPECT_NEAR(net.transferTime(s1, s2), 0.6, 0.05);   // paper 0.6
    EXPECT_NEAR(net.transferTime(s2, s1), 1.3, 0.05);   // paper 1.3
    EXPECT_NEAR(net.transferTime(s1, b1), 0.016, 0.005);// paper 0.02
    EXPECT_NEAR(net.transferTime(b1, s1), 0.011, 0.005);// paper 0.01
    EXPECT_NEAR(net.transferTime(s1, b2), 0.21, 0.02);  // paper 0.2
    EXPECT_NEAR(net.transferTime(b1, s2), 0.61, 0.11);  // paper 0.5
    EXPECT_NEAR(net.transferTime(s2, b2), 1.5, 0.1);    // paper 1.5
    EXPECT_NEAR(net.transferTime(b2, s2), 1.03, 0.15);  // paper 0.9
    EXPECT_NEAR(net.transferTime(s2, b1), 1.3, 0.05);   // paper 1.3
    EXPECT_NEAR(net.transferTime(b2, s1), 0.44, 0.05);  // paper 0.4
    EXPECT_NEAR(net.transferTime(b2, b1), 0.43, 0.05);  // paper 0.4
}

TEST(Transfer, UpTransfersCheaperThanDown)
{
    // Leaving a level-2 source costs more (cat prep at L2) than
    // landing on a level-2 destination from L1.
    const TransferNetwork net(params);
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913}) {
        const Encoding l1{kind, 1};
        const Encoding l2{kind, 2};
        EXPECT_GT(net.transferTime(l2, l1), net.transferTime(l1, l2));
    }
}

TEST(Transfer, MatrixShape)
{
    const TransferNetwork net(params);
    const std::vector<Encoding> encodings = {
        {ecc::CodeKind::Steane713, 1},
        {ecc::CodeKind::Steane713, 2},
        {ecc::CodeKind::BaconShor913, 1},
        {ecc::CodeKind::BaconShor913, 2}};
    const auto matrix = net.latencyMatrix(encodings);
    ASSERT_EQ(matrix.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_EQ(matrix[i].size(), 4u);
        EXPECT_EQ(matrix[i][i], 0.0);
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_GE(matrix[i][j], 0.0);
    }
}

TEST(Bandwidth, CrossoverAt36Blocks)
{
    // Paper Fig. 6b: the optimal superblock is 36 compute blocks.
    const BandwidthModel model(ecc::Code::steane(), 2, params);
    EXPECT_NEAR(model.crossoverBlocks(), 36u, 1u);
}

TEST(Bandwidth, CrossoverCodeIndependent)
{
    // "immaterial of what error correction code is used".
    // Both demand and supply scale with the gate step, so the
    // crossover moves by at most a block or two between codes and
    // levels (the residual physical-gate constant breaks exact
    // equality).
    const BandwidthModel steane(ecc::Code::steane(), 2, params);
    const BandwidthModel bs(ecc::Code::baconShor(), 2, params);
    EXPECT_NEAR(static_cast<double>(steane.crossoverBlocks()),
                static_cast<double>(bs.crossoverBlocks()), 2.0);
    const BandwidthModel l1(ecc::Code::steane(), 1, params);
    EXPECT_NEAR(static_cast<double>(steane.crossoverBlocks()),
                static_cast<double>(l1.crossoverBlocks()), 2.0);
}

TEST(Bandwidth, SupplySqrtDemandLinear)
{
    const BandwidthModel model(ecc::Code::steane(), 2, params);
    EXPECT_NEAR(model.availablePerSuperblock(64) /
                    model.availablePerSuperblock(16),
                2.0, 1e-9);
    EXPECT_NEAR(model.requiredDraper(64) / model.requiredDraper(16),
                4.0, 1e-9);
}

TEST(Bandwidth, WorstCaseAboveDraper)
{
    const BandwidthModel model(ecc::Code::baconShor(), 2, params);
    for (double b : {4.0, 16.0, 36.0, 80.0})
        EXPECT_GT(model.requiredWorstCase(b), model.requiredDraper(b));
}

TEST(Mesh, HopsAndMeanDistance)
{
    const Mesh mesh(4);
    EXPECT_EQ(mesh.nodes(), 16);
    EXPECT_EQ(mesh.hops(0, 15), 6);
    EXPECT_EQ(mesh.hops(5, 5), 0);
    // The mean of hops() over every ordered pair is the closed form
    // 2(s^2 - 1)/(3s): the mean |x1 - x2| on a line of s nodes, once
    // for x and once for y. At s = 4 that is 2 * 15/12.
    double total = 0.0;
    for (int a = 0; a < mesh.nodes(); ++a)
        for (int b = 0; b < mesh.nodes(); ++b)
            total += mesh.hops(a, b);
    EXPECT_NEAR(total / (16.0 * 16.0), 2.0 * 15.0 / 12.0, 1e-9);
}

TEST(Mesh, AllToAllScalesQuadratically)
{
    const Mesh mesh(8);
    const double t1 = mesh.allToAllTime(100, 1.0);
    const double t2 = mesh.allToAllTime(200, 1.0);
    EXPECT_NEAR(t2 / t1, 4.0, 0.1);
    EXPECT_EQ(mesh.allToAllTime(1, 1.0), 0.0);
}

TEST(Mesh, BiggerMeshMovesFaster)
{
    const Mesh small(4), big(16);
    EXPECT_LT(big.allToAllTime(500, 1.0), small.allToAllTime(500, 1.0));
}

} // namespace
} // namespace net
} // namespace qmh
