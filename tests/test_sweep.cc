/** @file Unit tests for the multithreaded sweep engine. */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "sweep/emit.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"

namespace qmh {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    sweep::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter]() { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    sweep::ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter]() { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    pool.submit([&counter]() { ++counter; });
    pool.submit([&counter]() { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, PropagatesFirstTaskException)
{
    sweep::ThreadPool pool(2);
    pool.submit([]() { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool stays usable after a failed batch.
    std::atomic<int> counter{0};
    pool.submit([&counter]() { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ThrowingTasksDoNotCorruptInFlightAccounting)
{
    // A task that throws must still count as retired: if _in_flight
    // leaked, this wait() (and every later one) would hang instead
    // of rethrowing, and the session layer above — which shares one
    // pool across jobs — would stall with it.
    sweep::ThreadPool pool(4);
    std::atomic<int> survivors{0};
    for (int i = 0; i < 64; ++i) {
        if (i % 3 == 0)
            pool.submit([]() { throw std::runtime_error("boom"); });
        else
            pool.submit([&survivors]() { ++survivors; });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(survivors.load(), 64 - 22);  // every non-thrower ran

    // And a full second batch drains cleanly: no stale error, no
    // stale in-flight count.
    std::atomic<int> second{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&second]() { ++second; });
    pool.wait();  // must not throw and must not hang
    EXPECT_EQ(second.load(), 32);
}

TEST(ThreadPool, WaitRethrowsTheFirstErrorAndDropsTheRest)
{
    // One worker serializes execution, so "first" is well defined.
    sweep::ThreadPool pool(1);
    pool.submit([]() { throw std::runtime_error("first"); });
    pool.submit([]() { throw std::logic_error("second"); });
    try {
        pool.wait();
        FAIL() << "wait() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
    // The second exception was dropped, not deferred to the next
    // wait(): a later clean batch reports clean.
    pool.submit([]() {});
    EXPECT_NO_THROW(pool.wait());
}

TEST(Sweep, PointSeedIsDeterministicAndDistinct)
{
    EXPECT_EQ(sweep::pointSeed(1, 0), sweep::pointSeed(1, 0));
    EXPECT_NE(sweep::pointSeed(1, 0), sweep::pointSeed(1, 1));
    EXPECT_NE(sweep::pointSeed(1, 0), sweep::pointSeed(2, 0));
    // Adjacent indices must not produce correlated seeds.
    const auto a = sweep::pointSeed(99, 7);
    const auto b = sweep::pointSeed(99, 8);
    EXPECT_GT(a ^ b, 0xFFFFFFFFULL);
}

TEST(Emit, CsvQuotesOnlyWhenNeeded)
{
    sweep::ResultTable table({"name", "value"});
    table.addRow({"plain", 3});
    table.addRow({"com,ma", 1.5});
    table.addRow({"qu\"ote", std::uint64_t(7)});
    std::ostringstream os;
    table.writeCsv(os);
    EXPECT_EQ(os.str(), "name,value\n"
                        "plain,3\n"
                        "\"com,ma\",1.5\n"
                        "\"qu\"\"ote\",7\n");
}

TEST(Emit, DoublesRoundTripExactly)
{
    const double value = 0.1 + 0.2; // not representable as "0.3"
    sweep::ResultTable table({"v"});
    table.addRow({value});
    std::ostringstream os;
    table.writeCsv(os);
    const auto body = os.str().substr(os.str().find('\n') + 1);
    EXPECT_EQ(std::stod(body), value);
}

TEST(Emit, JsonShapesRowsAsObjects)
{
    sweep::ResultTable table({"label", "speedup"});
    table.addRow({"steane", 6.25});
    table.addRow({"line\nbreak", 1});
    std::ostringstream os;
    table.writeJson(os);
    EXPECT_EQ(os.str(), "[\n"
                        "  {\"label\": \"steane\", \"speedup\": 6.25},\n"
                        "  {\"label\": \"line\\nbreak\", \"speedup\": 1}\n"
                        "]\n");
}

} // namespace
} // namespace qmh
