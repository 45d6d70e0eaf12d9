/** @file Quantum cache simulator tests (paper Fig. 7). */

#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/cache_sim.hh"
#include "gen/draper.hh"

namespace qmh {
namespace cache {
namespace {

using circuit::Program;
using circuit::QubitId;

/**
 * The residents of @p c, a cache of @p capacity qubits, most recent
 * first: the victims a copy of it reports while fresh ids (never
 * touched before) push every resident out, least recent first.
 */
std::vector<QubitId>
recencyOrder(QubitCache c, unsigned capacity)
{
    std::vector<QubitId> evicted;
    for (unsigned i = 0; i < capacity; ++i)
        c.touch(QubitId(1000 + i), &evicted);
    return {evicted.rbegin(), evicted.rend()};
}

TEST(QubitCache, LruEviction)
{
    QubitCache c(2);
    std::vector<QubitId> evicted;
    EXPECT_FALSE(c.touch(QubitId(0), &evicted));
    EXPECT_FALSE(c.touch(QubitId(1), &evicted));
    EXPECT_TRUE(c.touch(QubitId(0), &evicted));   // refresh 0: LRU is 1
    EXPECT_FALSE(c.touch(QubitId(2), &evicted));  // evicts 1
    EXPECT_TRUE(c.contains(QubitId(0)));
    EXPECT_FALSE(c.contains(QubitId(1)));
    EXPECT_TRUE(c.contains(QubitId(2)));
    EXPECT_EQ(evicted, std::vector<QubitId>{QubitId(1)});
}

TEST(QubitCache, ResidentsReportRecencyOrderNotHashOrder)
{
    // Determinism regression: the residency snapshot must be a pure
    // function of the access history (MRU first), never of the
    // unordered index's bucket layout.
    QubitCache c(3);
    c.touch(QubitId(5));
    c.touch(QubitId(9));
    c.touch(QubitId(1));
    const std::vector<QubitId> fresh = {QubitId(1), QubitId(9),
                                        QubitId(5)};
    EXPECT_EQ(recencyOrder(c, 3), fresh);

    c.touch(QubitId(9));                 // refresh: 9 becomes MRU
    c.touch(QubitId(7));                 // evicts 5, the LRU entry
    const std::vector<QubitId> after = {QubitId(7), QubitId(9),
                                        QubitId(1)};
    EXPECT_EQ(recencyOrder(c, 3), after);
}

TEST(QubitCache, ResidentsTrackInterleavedHitMissEvictSequences)
{
    // The recency order is the observable any replacement-structure
    // swap must reproduce exactly: walk a sequence that interleaves
    // compulsory misses, refreshing hits, evicting misses and repeat
    // touches of the current MRU, checking the full snapshot (and the
    // eviction victims) at every step.
    QubitCache c(3);
    std::vector<QubitId> evicted;
    const struct
    {
        unsigned touch;
        bool hit;
        std::vector<QubitId> residents;
    } steps[] = {
        {4, false, {QubitId(4)}},
        {2, false, {QubitId(2), QubitId(4)}},
        {4, true, {QubitId(4), QubitId(2)}},
        {4, true, {QubitId(4), QubitId(2)}},           // MRU self-touch
        {8, false, {QubitId(8), QubitId(4), QubitId(2)}},
        {6, false, {QubitId(6), QubitId(8), QubitId(4)}},  // evicts 2
        {2, false, {QubitId(2), QubitId(6), QubitId(8)}},  // evicts 4
        {8, true, {QubitId(8), QubitId(2), QubitId(6)}},
        {6, true, {QubitId(6), QubitId(8), QubitId(2)}},
        {4, false, {QubitId(4), QubitId(6), QubitId(8)}},  // evicts 2
        {6, true, {QubitId(6), QubitId(4), QubitId(8)}},
    };
    for (const auto &step : steps) {
        EXPECT_EQ(c.touch(QubitId(step.touch), &evicted), step.hit)
            << "touch " << step.touch;
        EXPECT_EQ(recencyOrder(c, 3), step.residents)
            << "after touch " << step.touch;
    }
    const std::vector<QubitId> victims = {QubitId(2), QubitId(4),
                                          QubitId(2)};
    EXPECT_EQ(evicted, victims);
}

TEST(QubitCache, CapacityRespected)
{
    QubitCache c(3);
    std::vector<QubitId> evicted;
    for (int i = 0; i < 10; ++i)
        c.touch(QubitId(static_cast<unsigned>(i)), &evicted);
    // Ten distinct qubits, seven victims: three stay resident.
    EXPECT_EQ(evicted.size(), 7u);
    for (unsigned i = 7; i < 10; ++i)
        EXPECT_TRUE(c.contains(QubitId(i))) << i;
}

TEST(CacheSim, SequentialReuseHits)
{
    Program p("reuse", 2);
    for (int i = 0; i < 10; ++i)
        p.cnot(QubitId(0), QubitId(1));
    const auto r = simulateCache(p, 4, FetchPolicy::InOrder);
    EXPECT_EQ(r.accesses, 20u);
    EXPECT_EQ(r.misses, 2u);  // only the compulsory misses
    EXPECT_EQ(r.hits, 18u);
}

TEST(CacheSim, ThrashingWhenWorkingSetExceedsCapacity)
{
    Program p("thrash", 8);
    for (int round = 0; round < 4; ++round)
        for (int q = 0; q < 8; ++q)
            p.x(QubitId(static_cast<unsigned>(q)));
    const auto r = simulateCache(p, 4, FetchPolicy::InOrder);
    // Cyclic access with LRU and half-size cache: every access misses.
    EXPECT_EQ(r.hits, 0u);
}

TEST(CacheSim, OptimizedBeatsInOrderOnAdder)
{
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        128, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    const std::size_t capacity = 128;
    const auto in_order =
        simulateCache(prog, capacity, FetchPolicy::InOrder);
    const auto optimized =
        simulateCache(prog, capacity, FetchPolicy::OptimizedLookahead);
    EXPECT_GT(optimized.hitRate(), in_order.hitRate());
    EXPECT_EQ(optimized.accesses, in_order.accesses);
}

TEST(CacheSim, IssueOrderIsAValidTopologicalOrder)
{
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(16, true, &layout);
    const auto r =
        simulateCache(prog, 8, FetchPolicy::OptimizedLookahead);
    ASSERT_EQ(r.issue_order.size(), prog.size());
    // Verify via per-qubit last-position tracking: an instruction must
    // come after every earlier instruction sharing a qubit.
    std::vector<int> position(prog.size());
    for (std::size_t pos = 0; pos < r.issue_order.size(); ++pos)
        position[r.issue_order[pos]] = static_cast<int>(pos);
    std::vector<int> last(static_cast<std::size_t>(prog.qubitCount()),
                          -1);
    for (std::uint32_t i = 0; i < prog.size(); ++i) {
        for (const auto &q : prog[i].operands()) {
            if (last[q.value()] >= 0) {
                EXPECT_LT(position[static_cast<std::size_t>(
                              last[q.value()])],
                          position[i]);
            }
            last[q.value()] = static_cast<int>(i);
        }
    }
}

TEST(CacheSim, WarmStartImprovesHitRate)
{
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        64, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * 64; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    const auto cold = simulateCache(prog, 96,
                                    FetchPolicy::OptimizedLookahead,
                                    false, mask);
    const auto warm = simulateCache(prog, 96,
                                    FetchPolicy::OptimizedLookahead,
                                    true, mask);
    EXPECT_GE(warm.hitRate(), cold.hitRate());
}

TEST(CacheSim, MaskExcludesScratchQubits)
{
    Program p("mask", 3);
    p.toffoli(QubitId(0), QubitId(1), QubitId(2));
    std::vector<bool> mask = {true, true, false};
    const auto r =
        simulateCache(p, 2, FetchPolicy::InOrder, false, mask);
    EXPECT_EQ(r.accesses, 2u);  // q2 never counted
}

TEST(CacheSim, PaperFig7Separation)
{
    // The headline Fig. 7 behaviour: on the big adder with the data
    // registers cached, optimized lookahead sits far above in-order.
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        1024, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * 1024; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    const std::size_t capacity = 1800;  // 2x the 100-block PE count
    const auto in_order = simulateCache(prog, capacity,
                                        FetchPolicy::InOrder, true,
                                        mask);
    const auto optimized =
        simulateCache(prog, capacity, FetchPolicy::OptimizedLookahead,
                      true, mask);
    EXPECT_GT(optimized.hitRate(), 0.80);
    EXPECT_LT(in_order.hitRate(), 0.65);
}

TEST(CacheSim, WarmStartNeverHurtsWhenTheOrderIsFixed)
{
    // Monotonicity: with a fixed access order, a warmed LRU cache can
    // only turn the first touch of a resident qubit from a compulsory
    // miss into a hit — every cold hit's reuse distance is unchanged.
    // (OptimizedLookahead re-chooses the order from cache contents,
    // so its mid-capacity hit rates are not provably monotone; see
    // the test below for where the guarantee does hold.)
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        48, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * 48; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    for (const std::size_t capacity : {8u, 24u, 48u, 96u, 192u}) {
        const auto cold = simulateCache(prog, capacity,
                                        FetchPolicy::InOrder, false,
                                        mask);
        const auto warm = simulateCache(prog, capacity,
                                        FetchPolicy::InOrder, true,
                                        mask);
        EXPECT_GE(warm.hitRate(), cold.hitRate())
            << "capacity " << capacity;
        EXPECT_EQ(warm.accesses, cold.accesses);
    }
}

TEST(CacheSim, WarmStartNeverHurtsOptimizedOnceTheWorkingSetFits)
{
    // For the lookahead policy the guarantee holds when ordering
    // effects vanish: the whole cacheable working set is resident
    // after the warm pass.
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        48, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * 48; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    for (const std::size_t capacity : {96u, 128u, 192u}) {
        const auto cold = simulateCache(
            prog, capacity, FetchPolicy::OptimizedLookahead, false,
            mask);
        const auto warm = simulateCache(
            prog, capacity, FetchPolicy::OptimizedLookahead, true,
            mask);
        EXPECT_GE(warm.hitRate(), cold.hitRate())
            << "capacity " << capacity;
        EXPECT_EQ(warm.accesses, cold.accesses);
    }
}

TEST(CacheSim, WarmStartAtFullCapacityHasNoMisses)
{
    // When every cacheable qubit fits, the warm run starts with the
    // whole working set resident: zero misses, zero evictions.
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        32, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * 32; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    const auto warm = simulateCache(
        prog, 64, FetchPolicy::OptimizedLookahead, true, mask);
    EXPECT_EQ(warm.misses, 0u);
    EXPECT_EQ(warm.evictions, 0u);
    EXPECT_DOUBLE_EQ(warm.hitRate(), 1.0);
}

TEST(CacheSim, MaskedScratchNeverMissesOrEvicts)
{
    // Heavy traffic on masked scratch qubits must be invisible to the
    // hierarchy: no accesses, no misses, no evictions — even with a
    // cache far smaller than the scratch working set.
    Program p("scratch-heavy", 34);
    for (int round = 0; round < 6; ++round)
        for (unsigned q = 2; q < 34; ++q)
            p.toffoli(QubitId(0), QubitId(1), QubitId(q));
    std::vector<bool> mask(34, false);
    mask[0] = mask[1] = true;
    for (const bool warm : {false, true}) {
        const auto r =
            simulateCache(p, 2, FetchPolicy::InOrder, warm, mask);
        // Only the two data qubits are ever counted...
        EXPECT_EQ(r.accesses, 2u * 6u * 32u);
        // ...and they fit, so nothing beyond their compulsory misses.
        EXPECT_LE(r.misses, 2u);
        EXPECT_EQ(r.evictions, 0u);
        if (warm) {
            EXPECT_EQ(r.misses, 0u);
        }
    }
}

TEST(CacheSim, AllMaskedProgramTouchesNothing)
{
    Program p("all-scratch", 4);
    for (int i = 0; i < 8; ++i)
        p.cnot(QubitId(0), QubitId(1));
    const std::vector<bool> mask(4, false);
    const auto r =
        simulateCache(p, 2, FetchPolicy::OptimizedLookahead, true,
                      mask);
    EXPECT_EQ(r.accesses, 0u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_EQ(r.evictions, 0u);
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.0);
    // Every instruction still issues exactly once.
    EXPECT_EQ(r.issue_order.size(), p.size());
}

TEST(CacheState, SteppingInProgramOrderMatchesInOrderDriver)
{
    // CacheState is the residency truth the drivers and the trace
    // engine share: stepping it by hand in program order must match
    // the in-order whole-program driver's counters exactly.
    const auto prog = gen::draperAdder(16);
    const std::size_t capacity = 12;
    CacheState state(capacity, {});
    std::vector<QubitId> evicted;
    for (const auto &inst : prog.instructions())
        state.accessInto(inst, evicted);
    const auto driver =
        simulateCache(prog, capacity, FetchPolicy::InOrder);
    EXPECT_EQ(state.accesses(), driver.accesses);
    EXPECT_EQ(state.hits(), driver.hits);
    EXPECT_EQ(state.misses(), driver.misses);
    EXPECT_EQ(state.evictions(), driver.evictions);
}

TEST(CacheSim, EvictionsNeverExceedMisses)
{
    // Every eviction makes room for a missed operand, so a run's
    // evictions are at most its misses — a warm start included, whose
    // warm-up pass is not part of the measured run.
    const auto prog = gen::draperAdder(64);
    for (const auto policy :
         {FetchPolicy::InOrder, FetchPolicy::OptimizedLookahead}) {
        for (const bool warm : {false, true}) {
            const auto r = simulateCache(prog, 16, policy, warm);
            EXPECT_GT(r.evictions, 0u);
            EXPECT_LE(r.evictions, r.misses)
                << fetchPolicyName(policy) << (warm ? " warm" : " cold");
        }
    }
}

TEST(CacheState, MissingOperandsPredictsAccessOutcome)
{
    Program p("m", 3);
    p.toffoli(QubitId(0), QubitId(1), QubitId(2));
    CacheState state(2, {});
    const auto &inst = p.instructions().front();
    std::vector<QubitId> missing;
    std::vector<QubitId> evicted;
    // Cold: every operand missing; missingOperandsInto does not mutate.
    state.missingOperandsInto(inst, missing);
    EXPECT_EQ(missing.size(), 3u);
    state.missingOperandsInto(inst, missing);
    EXPECT_EQ(missing.size(), 3u);
    state.accessInto(inst, evicted);
    EXPECT_EQ(state.misses(), 3u);
    // Capacity 2: qubit 0 was evicted while 1 and 2 are resident.
    EXPECT_EQ(evicted, (std::vector<QubitId>{QubitId(0)}));
    EXPECT_FALSE(state.resident(QubitId(0)));
    EXPECT_TRUE(state.resident(QubitId(1)));
    EXPECT_TRUE(state.resident(QubitId(2)));
    state.missingOperandsInto(inst, missing);
    EXPECT_EQ(missing, (std::vector<QubitId>{QubitId(0)}));
}

TEST(CacheState, MaskedQubitsNeverMissOrOccupy)
{
    Program p("mask", 2);
    p.cnot(QubitId(0), QubitId(1));
    std::vector<bool> mask = {true, false};
    CacheState state(1, mask);
    EXPECT_FALSE(state.isCacheable(QubitId(1)));
    std::vector<QubitId> scratch;
    state.missingOperandsInto(p.instructions().front(), scratch);
    EXPECT_EQ(scratch.size(), 1u);
    state.accessInto(p.instructions().front(), scratch);
    EXPECT_EQ(state.accesses(), 1u);  // only the cacheable operand
    EXPECT_TRUE(state.resident(QubitId(0)));
    EXPECT_FALSE(state.resident(QubitId(1)));
}

TEST(CacheState, ResetCountersKeepsResidency)
{
    Program p("r", 1);
    p.x(QubitId(0));
    CacheState state(1, {});
    std::vector<QubitId> evicted;
    state.accessInto(p.instructions().front(), evicted);
    EXPECT_EQ(state.misses(), 1u);
    state.resetCounters();
    EXPECT_EQ(state.accesses(), 0u);
    state.accessInto(p.instructions().front(), evicted);
    EXPECT_EQ(state.hits(), 1u);  // still resident: warm start
}

TEST(CacheSimDeath, ZeroCapacityRejected)
{
    Program p("x", 1);
    p.x(QubitId(0));
    EXPECT_THROW(simulateCache(p, 0, FetchPolicy::InOrder),
                 std::invalid_argument);
}

TEST(CacheSimDeath, BadMaskSizeRejected)
{
    Program p("x", 2);
    p.x(QubitId(0));
    std::vector<bool> mask = {true};
    EXPECT_THROW(simulateCache(p, 2, FetchPolicy::InOrder, false, mask),
                 std::invalid_argument);
}

} // namespace
} // namespace cache
} // namespace qmh
