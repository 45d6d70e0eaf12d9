/** @file Unit and property tests for the opt:: optimizer stack. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "api/grid.hh"
#include "opt/cached_job.hh"
#include "opt/frontier.hh"
#include "opt/result_cache.hh"
#include "run_table.hh"

namespace qmh {
namespace opt {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

std::string
tempPath(const char *name)
{
    const auto path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

TEST(SpecSeed, IsAFunctionOfTheSpecAlone)
{
    const auto seed = specSeed(42, "experiment=cache n=64");
    EXPECT_EQ(seed, specSeed(42, "experiment=cache n=64"));
    EXPECT_NE(seed, specSeed(43, "experiment=cache n=64"));
    EXPECT_NE(seed, specSeed(42, "experiment=cache n=65"));
}

TEST(CellTags, RoundTripEveryAlternative)
{
    const sweep::Cell cells[] = {
        sweep::Cell(std::string("text, with \"quotes\"\n")),
        sweep::Cell(0.1), sweep::Cell(-0.0),
        sweep::Cell(std::int64_t(-7)),
        sweep::Cell(std::uint64_t(18446744073709551615ULL))};
    for (const auto &cell : cells) {
        const auto back =
            sweep::Cell::fromTagged(cell.typeTag(), cell.toString());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->typeTag(), cell.typeTag());
        EXPECT_EQ(back->toString(), cell.toString());
    }
    EXPECT_FALSE(sweep::Cell::fromTagged('i', "12abc").has_value());
    EXPECT_FALSE(sweep::Cell::fromTagged('u', "-1").has_value());
    EXPECT_FALSE(sweep::Cell::fromTagged('x', "1").has_value());
}

std::vector<api::ExperimentSpec>
montecarloSpecs()
{
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=montecarlo trials=300 level=1")
            .spec;
    grid.axis("p0", {"0.0001", "0.001"});
    grid.axis("code", {"steane", "bacon-shor"});
    return grid.expand();
}

// The CachedSweep suite pins opt::CachedJob, the one cached sweep.
using tests::runCached;

TEST(CachedSweep, WarmRunReplaysColdRowsBitIdentically)
{
    const auto path = tempPath("opt_cache_replay.jsonl");
    const auto specs = montecarloSpecs();

    api::Session session({.threads = 2});
    std::string cold_csv;
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        const auto cold = runCached(session, specs, &cache);
        EXPECT_EQ(cold.result.simulated, specs.size());
        EXPECT_EQ(cold.result.replayed, 0u);
        cold_csv = csvOf(cold.table);
    }
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        EXPECT_EQ(cache.stats().resident, specs.size());
        const auto warm = runCached(session, specs, &cache);
        EXPECT_EQ(warm.result.simulated, 0u);
        EXPECT_EQ(warm.result.replayed, specs.size());
        EXPECT_EQ(csvOf(warm.table), cold_csv);
    }
}

TEST(CachedSweep, RowsAreIndependentOfThreadCountAndBatchOrder)
{
    const auto specs = montecarloSpecs();
    api::Session one({.threads = 1});
    api::Session many({.threads = 4});
    const auto a = runCached(one, specs);
    const auto b = runCached(many, specs);
    EXPECT_EQ(csvOf(a.table), csvOf(b.table));

    // Spec-addressed seeding: the same spec must produce the same row
    // when evaluated from a differently ordered (and smaller) batch —
    // the property an index-seeded Session job does not have, and the
    // one that makes cached replay sound.
    std::vector<api::ExperimentSpec> reversed(specs.rbegin(),
                                              specs.rend());
    const auto c = runCached(many, reversed);
    const auto spec_col = *a.table.findColumn("spec");
    for (std::size_t r = 0; r < specs.size(); ++r) {
        const std::size_t rr = specs.size() - 1 - r;
        for (std::size_t col = 0; col < a.table.columns(); ++col)
            EXPECT_EQ(a.table.cell(r, col).toString(),
                      c.table.cell(rr, col).toString())
                << a.table.cell(r, spec_col).toString();
    }
}

TEST(CachedSweep, DuplicateSpecsEvaluateOnce)
{
    auto specs = montecarloSpecs();
    const auto unique_points = specs.size();
    specs.push_back(specs.front());
    specs.push_back(specs.front());
    api::Session session({.threads = 2});
    const auto outcome = runCached(session, specs);
    EXPECT_EQ(outcome.result.simulated, unique_points);
    EXPECT_EQ(outcome.result.replayed, 2u);
    ASSERT_EQ(outcome.table.rows(), specs.size());
    for (std::size_t col = 0; col < outcome.table.columns(); ++col) {
        EXPECT_EQ(outcome.table.cell(0, col).toString(),
                  outcome.table.cell(unique_points, col).toString());
        EXPECT_EQ(outcome.table.cell(0, col).toString(),
                  outcome.table.cell(unique_points + 1, col).toString());
    }
}

TEST(CachedSweep, RowLimitCutsADeterministicPrefix)
{
    const auto specs = montecarloSpecs();
    api::Session session({.threads = 4});
    const auto full = runCached(session, specs);
    ASSERT_EQ(full.table.rows(), specs.size());

    const auto cut = runCached(session, specs, nullptr, 2);
    // Misses past the limit are never submitted, so the count is
    // exact on any thread count.
    EXPECT_EQ(cut.result.simulated, 2u);
    EXPECT_EQ(cut.result.rows, 2u);
    ASSERT_EQ(cut.table.rows(), 2u);
    // The cut result is exactly the leading rows of the full sweep,
    // bit for bit.
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < full.table.columns(); ++c)
            EXPECT_EQ(cut.table.cell(r, c).toString(),
                      full.table.cell(r, c).toString());
}

TEST(CachedSweep, OnRowObservesAndCancels)
{
    // A reader that stops after its third row: cancel() hands out
    // nothing further, and the job still retires cleanly.
    const auto specs = montecarloSpecs();
    api::Session session({.threads = 2});
    CachedJob job(api::validateExperiments(specs).value(),
                  api::SeedMode::Spec, session.baseSeed());
    job.start(session);
    std::size_t seen = 0;
    while (job.next()) {
        if (++seen == 3)
            job.cancel();
    }
    EXPECT_EQ(seen, 3u);
    std::vector<sweep::Cell> row;
    EXPECT_EQ(job.poll(row), api::RowPoll::End);
    const auto result = job.wait();
    EXPECT_EQ(result.rows, 3u);
    EXPECT_FALSE(result.failure.has_value());
}

TEST(CachedSweep, CancelledRunCachesOnlyTheIncorporatedPrefix)
{
    // Cache content must be a function of the rows handed out alone:
    // points that were in flight when the cut hit are never stored,
    // so a warm rerun of the same limited sweep is all hits and a
    // rerun of the full sweep simulates exactly the tail.
    const auto path = tempPath("opt_cache_cutoff.jsonl");
    const auto specs = montecarloSpecs();
    api::Session session({.threads = 4});
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        const auto cold = runCached(session, specs, &cache, 2);
        EXPECT_EQ(cold.result.simulated, 2u);

        // A reader's cancel() after one row stores that row only,
        // whatever else was in flight.
        CachedJob job(api::validateExperiments(specs).value(),
                      api::SeedMode::Spec, session.baseSeed(), &cache);
        job.start(session);
        ASSERT_TRUE(job.next().has_value());
        ASSERT_TRUE(job.next().has_value());
        ASSERT_TRUE(job.next().has_value());
        job.cancel();
        EXPECT_EQ(job.wait().rows, 3u);
        EXPECT_EQ(cache.stats().resident, 3u);
    }
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        EXPECT_EQ(cache.stats().resident, 3u);
        const auto warm = runCached(session, specs, &cache, 2);
        EXPECT_EQ(warm.result.simulated, 0u);
        EXPECT_EQ(warm.result.replayed, 2u);
        const auto rest = runCached(session, specs, &cache);
        EXPECT_EQ(rest.result.simulated, specs.size() - 3);
        EXPECT_EQ(rest.result.replayed, 3u);
    }
}

TEST(CachedSweep, RefusesAStoreBuiltForAnotherBaseSeed)
{
    // A store filled under base seed 5 holds rows seeded from 5;
    // replaying them to a job seeded from 6 would return rows a fresh
    // run at 6 does not produce. The job leaves such a store alone:
    // its rows are a cold run's, and the store is not read or written.
    const auto specs = montecarloSpecs();
    ResultCache cache(5);
    api::Session filler({.threads = 1, .base_seed = 5});
    runCached(filler, specs, &cache);
    const auto before = cache.stats();
    ASSERT_EQ(before.resident, specs.size());
    const auto key = api::printSpec(specs.front());
    const auto first = cache.lookup(key);

    api::Session other({.threads = 1, .base_seed = 6});
    const auto foreign = runCached(other, specs, &cache);
    const auto cold = runCached(other, specs);
    EXPECT_EQ(csvOf(foreign.table), csvOf(cold.table));
    EXPECT_EQ(foreign.result.simulated, specs.size());
    EXPECT_EQ(foreign.result.replayed, 0u);

    const auto after = cache.stats();
    EXPECT_EQ(after.hits, before.hits + 1);  // the lookup above only
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.inserts, before.inserts);
    EXPECT_EQ(after.resident, before.resident);
    const auto again = cache.lookup(key);
    ASSERT_TRUE(first && again);
    EXPECT_EQ(again->seed, first->seed);
    ASSERT_EQ(again->row.size(), first->row.size());
    for (std::size_t c = 0; c < first->row.size(); ++c)
        EXPECT_EQ(again->row[c].toString(), first->row[c].toString());
}

TEST(Frontier, LatticeIsTheCoarseGridPlusDyadicMidpoints)
{
    const FrontierAxis real{"utilization", 0.25, 1.0, 3};
    const auto lattice = frontierAxisLattice(real, false, 2);
    ASSERT_EQ(lattice.size(), 9u);
    EXPECT_EQ(lattice.front(), 0.25);
    EXPECT_EQ(lattice.back(), 1.0);
    for (std::size_t i = 0; i + 1 < lattice.size(); ++i)
        EXPECT_LT(lattice[i], lattice[i + 1]);

    const FrontierAxis ints{"transfers", 2, 16, 3};
    const auto int_lattice = frontierAxisLattice(ints, true, 10);
    for (const double v : int_lattice)
        EXPECT_EQ(v, std::floor(v));
    // Depth 10 far exceeds what [2, 16] can absorb; integer rounding
    // must terminate the refinement instead of duplicating values.
    EXPECT_LE(int_lattice.size(), 15u);
}

/** The details of @p searched's error; empty (and a failure) when
 *  the search ran or failed with another code than InvalidSpec. */
std::vector<std::string>
invalidSpecDetails(const api::Outcome<FrontierOutcome> &searched)
{
    if (searched.ok()) {
        ADD_FAILURE() << "the search ran";
        return {};
    }
    EXPECT_EQ(searched.error().code, api::ErrorCode::InvalidSpec);
    return searched.error().details;
}

TEST(Frontier, ValidationCatchesBadConfigurations)
{
    const auto base = api::parseSpec("experiment=hierarchy").spec;
    FrontierOptions options;
    options.objective = "adder_speedup";
    options.budget = 4;
    api::Session session({.threads = 2});
    const auto search = [&](const api::ExperimentSpec &spec,
                            const std::vector<FrontierAxis> &axes,
                            const FrontierOptions &with) {
        return frontierSearch(session, spec, axes, with, nullptr);
    };
    using Details = std::vector<std::string>;
    EXPECT_EQ(invalidSpecDetails(search(base, {}, options)),
              Details{"frontier: at least one --axis is required"});
    EXPECT_EQ(
        invalidSpecDetails(search(base, {{"bogus", 0, 1, 3}}, options)),
        Details{"frontier: unknown axis key 'bogus'"});
    EXPECT_EQ(
        invalidSpecDetails(search(base, {{"policy", 0, 1, 3}}, options)),
        Details{"frontier: axis 'policy' is not numeric — only "
                "Int/UInt/Real keys can be refined"});
    EXPECT_EQ(invalidSpecDetails(
                  search(base, {{"transfers", 16, 2, 3}}, options)),
              Details{"frontier: axis 'transfers' needs lo < hi"});
    // Every coarse point has n < 8, below the hierarchy kind's bound.
    EXPECT_EQ(
        invalidSpecDetails(search(base, {{"n", 2, 7, 3}}, options)),
        Details{"frontier: no point of the coarse grid passes "
                "validation — adjust the axis ranges or the base spec"});
    // 65^3 coarse points: rejected before any point is built.
    EXPECT_EQ(invalidSpecDetails(search(base,
                                        {{"n", 8, 4096, 65},
                                         {"transfers", 1, 100, 65},
                                         {"blocks", 1, 100, 65}},
                                        options)),
              Details{"frontier: the coarse grid exceeds 100000 points "
                      "— lower the axis coarse counts"});
    FrontierOptions bad_objective = options;
    bad_objective.objective = "hit_rate";  // a cache column
    EXPECT_EQ(invalidSpecDetails(search(
                  base, {{"transfers", 2, 16, 3}}, bad_objective)),
              Details{"frontier: hierarchy experiments have no column "
                      "'hit_rate'"});
    // 64 * 2^20 + 1 lattice values on a real axis: rejected.
    const auto bandwidth = api::parseSpec("experiment=bandwidth").spec;
    FrontierOptions deep;
    deep.objective = "required_draper_qps";
    deep.max_depth = 20;
    deep.budget = 4;
    EXPECT_EQ(invalidSpecDetails(search(
                  bandwidth, {{"utilization", 0.01, 1.0, 65}}, deep)),
              Details{"frontier: axis 'utilization' would materialize "
                      "more than 262145 lattice values — lower --depth "
                      "or coarse"});
    // The same depth is fine on an integer axis with a narrow range:
    // the lattice saturates at the integer spacing.
    const auto narrow = search(bandwidth, {{"blocks", 2, 16, 3}}, deep);
    ASSERT_TRUE(narrow.ok()) << narrow.error().describe();
    EXPECT_EQ(narrow.value().evaluated, 4u);
    const auto two_axes = search(
        base, {{"transfers", 2, 16, 3}, {"blocks", 4, 64, 3}}, options);
    ASSERT_TRUE(two_axes.ok()) << two_axes.error().describe();
    EXPECT_EQ(two_axes.value().evaluated, 4u);
}

/**
 * The hierarchy kind needs n >= 8, so the coarse points on n = 2 (one
 * per transfers value) are skipped and counted once each; the search
 * runs on the valid rest, and refinement bisects toward n = 2 as it
 * does toward an evaluated value.
 */
TEST(Frontier, InvalidCandidatesAreSkippedAndCounted)
{
    const auto base = api::parseSpec("experiment=hierarchy").spec;
    FrontierOptions options;
    options.objective = "adder_speedup";
    api::Session session({.threads = 2});
    const auto found =
        frontierSearch(session, base,
                       {{"n", 2, 64, 3}, {"transfers", 2, 16, 3}},
                       options, nullptr)
            .value();
    EXPECT_EQ(found.skipped_invalid, 3u);
    EXPECT_EQ(found.evaluated, 31u);
    EXPECT_EQ(found.best_key, "experiment=hierarchy n=64 transfers=16");
}

/**
 * An invalid coarse endpoint must not hide the valid values next to
 * it: over n = 2:64 the coarse grid evaluates only n = 33 and 64, and
 * the search still reaches n in [8, 32] by bisecting toward n = 2.
 */
TEST(Frontier, RefinementReachesValidValuesNextToASkippedEndpoint)
{
    const auto base = api::parseSpec("experiment=hierarchy").spec;
    FrontierOptions options;
    options.objective = "adder_speedup";
    api::Session session({.threads = 2});
    const auto found =
        frontierSearch(session, base, {{"n", 2, 64, 3}}, options,
                       nullptr)
            .value();
    EXPECT_EQ(found.skipped_invalid, 1u);
    const auto n = found.table.findColumn("n");
    ASSERT_TRUE(n.has_value());
    bool reached = false;
    for (std::size_t r = 0; r < found.table.rows(); ++r) {
        const auto value = found.table.cell(r, *n).asNumber().value();
        EXPECT_GE(value, 8.0);
        reached |= value <= 32.0;
    }
    EXPECT_TRUE(reached) << found.table.rows() << " point(s), none "
                         << "with n in [8, 32]";
}

/**
 * The exhaustive-mode property from the issue: with frontier = 0 and
 * a budget covering the whole lattice, the adaptive search must
 * enumerate exactly the brute-force SpecGrid over the per-axis
 * lattices and return its optimum.
 */
TEST(Frontier, ExhaustiveBudgetEqualsBruteForce)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const FrontierAxis util{"utilization", 0.25, 1.0, 3};
    const FrontierAxis blocks{"blocks", 10, 80, 3};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 10000;
    options.frontier = 0;  // refine everything: exhaustive mode

    api::SpecGrid brute;
    brute.base = base;
    std::vector<std::string> util_values;
    for (const double v :
         frontierAxisLattice(util, false, options.max_depth))
        util_values.push_back(frontierAxisValueText(v, false));
    std::vector<std::string> block_values;
    for (const double v :
         frontierAxisLattice(blocks, true, options.max_depth))
        block_values.push_back(frontierAxisValueText(v, true));
    brute.axis("utilization", util_values);
    brute.axis("blocks", block_values);

    api::Session session({.threads = 2});
    const auto brute_table = runCached(session, brute.expand()).table;
    const auto obj = *brute_table.findColumn("required_draper_qps");
    const auto spec_col = *brute_table.findColumn("spec");
    double brute_best = -1.0;
    std::string brute_best_key;
    for (std::size_t r = 0; r < brute_table.rows(); ++r) {
        const double v = *brute_table.cell(r, obj).asNumber();
        if (v > brute_best) {
            brute_best = v;
            brute_best_key = brute_table.cell(r, spec_col).toString();
        }
    }

    const auto found =
        frontierSearch(session, base, {util, blocks}, options, nullptr)
            .value();
    EXPECT_EQ(found.evaluated, brute_table.rows());
    EXPECT_EQ(found.simulated, brute_table.rows());
    EXPECT_EQ(found.rounds > 1, true);
    EXPECT_DOUBLE_EQ(found.best_objective, brute_best);
    EXPECT_EQ(found.best_key, brute_best_key);
}

/**
 * The acceptance property: on the reference hierarchy design space
 * the default greedy frontier reaches the brute-force optimum with
 * strictly fewer simulated points than the exhaustive sweep.
 */
TEST(Frontier, GreedySearchReachesBruteOptimumWithFewerPoints)
{
    const auto base = api::parseSpec("experiment=hierarchy n=64").spec;
    const FrontierAxis transfers{"transfers", 2, 16, 3};
    const FrontierAxis blocks{"blocks", 4, 64, 3};
    FrontierOptions options;
    options.objective = "gain_product";
    options.max_depth = 2;
    options.budget = 40;
    options.frontier = 3;

    api::SpecGrid brute;
    brute.base = base;
    for (const auto *axis : {&transfers, &blocks}) {
        std::vector<std::string> values;
        for (const double v :
             frontierAxisLattice(*axis, true, options.max_depth))
            values.push_back(frontierAxisValueText(v, true));
        brute.axis(axis->key, values);
    }

    api::Session session({.threads = 2});
    const auto brute_table = runCached(session, brute.expand()).table;
    const auto obj = *brute_table.findColumn("gain_product");
    double brute_best = -1.0;
    for (std::size_t r = 0; r < brute_table.rows(); ++r)
        brute_best =
            std::max(brute_best, *brute_table.cell(r, obj).asNumber());

    const auto found = frontierSearch(session, base, {transfers, blocks},
                                      options, nullptr)
                           .value();
    EXPECT_DOUBLE_EQ(found.best_objective, brute_best);
    EXPECT_LT(found.simulated, brute_table.rows());
}

TEST(Frontier, ProgressStreamsMonotonicallyAndObservesEveryPoint)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    std::size_t calls = 0;
    std::size_t last_evaluated = 0;
    options.on_progress = [&](const FrontierProgress &p) {
        ++calls;
        EXPECT_GE(p.round, 1u);
        EXPECT_GE(p.evaluated, last_evaluated);
        EXPECT_LE(p.round_done, p.round_total);
        last_evaluated = p.evaluated;
        return true;
    };
    api::Session session({.threads = 2});
    const auto found =
        frontierSearch(session, base, axes, options, nullptr).value();
    EXPECT_FALSE(found.cancelled);
    EXPECT_EQ(calls, found.evaluated);
    EXPECT_EQ(last_evaluated, found.evaluated);

    // A pure observer does not change the search: same table as the
    // callback-free run.
    FrontierOptions plain = options;
    plain.on_progress = nullptr;
    const auto reference =
        frontierSearch(session, base, axes, plain, nullptr).value();
    EXPECT_EQ(csvOf(found.table), csvOf(reference.table));
}

TEST(Frontier, ProgressCallbackCancelsDeterministically)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    constexpr std::size_t stop_after = 13;  // mid-round, on purpose
    options.on_progress = [](const FrontierProgress &p) {
        return p.evaluated < stop_after;
    };
    api::Session one({.threads = 1});
    api::Session many({.threads = 4});
    const auto a =
        frontierSearch(one, base, axes, options, nullptr).value();
    const auto b =
        frontierSearch(many, base, axes, options, nullptr).value();
    EXPECT_TRUE(a.cancelled);
    EXPECT_TRUE(b.cancelled);
    EXPECT_EQ(a.evaluated, stop_after);
    // Cancellation cuts in incorporation order, so the search is as
    // thread-count-independent cancelled as it is when it finishes.
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.best_key, b.best_key);
    EXPECT_EQ(csvOf(a.table), csvOf(b.table));
}

TEST(Frontier, WarmCacheRerunSimulatesNothingAndMatches)
{
    const auto path = tempPath("opt_frontier_warm.jsonl");
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    api::Session session({.threads = 2});
    std::string cold_csv;
    std::size_t cold_evaluated = 0;
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        const auto cold =
            frontierSearch(session, base, axes, options, &cache).value();
        EXPECT_GT(cold.simulated, 0u);
        cold_csv = csvOf(cold.table);
        cold_evaluated = cold.evaluated;
    }
    {
        ResultCache cache(session.baseSeed());
        ASSERT_EQ(cache.open(path), "");
        const auto warm =
            frontierSearch(session, base, axes, options, &cache).value();
        EXPECT_EQ(warm.simulated, 0u);
        EXPECT_EQ(warm.cached, warm.evaluated);
        EXPECT_EQ(warm.evaluated, cold_evaluated);
        EXPECT_EQ(csvOf(warm.table), cold_csv);
    }
}

} // namespace
} // namespace opt
} // namespace qmh
