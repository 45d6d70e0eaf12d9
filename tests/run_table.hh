/**
 * @file
 * Blocking sweeps for tests: submit specs as one Session job, wait,
 * and return its table. A rejected submission or a failed point is a
 * test failure (reported at the caller's line) and yields an empty
 * table, so a pin comparing tables fails too.
 */

#ifndef QMH_TESTS_RUN_TABLE_HH
#define QMH_TESTS_RUN_TABLE_HH

#include <gtest/gtest.h>

#include <vector>

#include "api/session.hh"

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

/** Same, on a session sharing @p runner's pool and base seed. */
inline sweep::ResultTable
runTable(sweep::SweepRunner &runner,
         const std::vector<api::ExperimentSpec> &specs)
{
    api::Session session(runner);
    return runTable(session, specs);
}

/** Same, on a session owning a pool built from @p options. */
inline sweep::ResultTable
runTable(const std::vector<api::ExperimentSpec> &specs,
         const sweep::SweepOptions &options = {})
{
    api::Session session(options);
    return runTable(session, specs);
}

} // namespace tests
} // namespace qmh

#endif // QMH_TESTS_RUN_TABLE_HH
