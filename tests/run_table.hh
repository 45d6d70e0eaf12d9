/**
 * @file
 * Blocking sweeps for tests: submit specs as one Session job (or one
 * spec-seeded opt::CachedJob), wait, and return its table. A rejected
 * submission or a failed point is a test failure (reported at the
 * caller's line) and yields an empty table, so a pin comparing tables
 * fails too.
 */

#ifndef QMH_TESTS_RUN_TABLE_HH
#define QMH_TESTS_RUN_TABLE_HH

#include <gtest/gtest.h>

#include <vector>

#include "api/session.hh"
#include "opt/cached_job.hh"

namespace qmh {
namespace tests {

/** Run @p specs on @p session and return the full result table. */
inline sweep::ResultTable
runTable(api::Session &session,
         const std::vector<api::ExperimentSpec> &specs)
{
    auto submitted = session.submit(specs);
    EXPECT_TRUE(submitted.ok())
        << (submitted.ok() ? "" : submitted.error().describe());
    if (!submitted.ok())
        return sweep::ResultTable({"spec", "seed"});
    auto result = submitted.value().wait();
    EXPECT_FALSE(result.failure.has_value())
        << (result.failure ? result.failure->describe() : "");
    return std::move(result.table);
}

/** Same, on a session owning a pool built from @p options. */
inline sweep::ResultTable
runTable(const std::vector<api::ExperimentSpec> &specs,
         const sweep::SweepOptions &options = {})
{
    api::Session session(options);
    return runTable(session, specs);
}

/** A drained cached job: its rows and its counters. */
struct CachedRun
{
    sweep::ResultTable table{{"spec", "seed"}};
    opt::CachedJobResult result;
};

/**
 * Run @p specs spec-seeded as one opt::CachedJob on @p session,
 * through @p cache (may be null), reading every row the job hands out
 * (at most @p limit; 0 = all).
 */
inline CachedRun
runCached(api::Session &session,
          const std::vector<api::ExperimentSpec> &specs,
          opt::ResultCache *cache = nullptr, std::size_t limit = 0)
{
    CachedRun run;
    auto experiments = api::validateExperiments(specs);
    EXPECT_TRUE(experiments.ok())
        << (experiments.ok() ? "" : experiments.error().describe());
    if (!experiments.ok())
        return run;
    opt::CachedJob job(std::move(experiments).value(),
                       api::SeedMode::Spec, session.baseSeed(), cache,
                       limit);
    job.start(session);
    run.table = sweep::ResultTable(job.columns());
    while (auto row = job.next())
        run.table.addRow(std::move(*row));
    run.result = job.wait();
    EXPECT_FALSE(run.result.failure.has_value())
        << (run.result.failure ? run.result.failure->describe() : "");
    return run;
}

} // namespace tests
} // namespace qmh

#endif // QMH_TESTS_RUN_TABLE_HH
