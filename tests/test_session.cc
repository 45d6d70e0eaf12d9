/** @file Unit tests for the job-oriented session API. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/grid.hh"
#include "api/service.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "ecc/code.hh"
#include "ecc/montecarlo.hh"
#include "run_table.hh"
#include "server/connection.hh"

namespace qmh {
namespace api {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

std::vector<ExperimentSpec>
montecarloSpecs(std::size_t points)
{
    SpecGrid grid;
    grid.base =
        parseSpec("experiment=montecarlo trials=400 level=1").spec;
    std::vector<std::string> trials;
    for (std::size_t i = 0; i < points; ++i)
        trials.push_back(std::to_string(400 + i));
    grid.axis("trials", trials);
    return grid.expand();
}

TEST(Session, SubmitRejectsInvalidSpecsWithTypedError)
{
    Session session({.threads = 1});
    const auto specs =
        std::vector<ExperimentSpec>{parseSpec("experiment=hierarchy "
                                              "n=5000")
                                        .spec};
    const auto submitted = session.submit(specs);
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.error().code, ErrorCode::InvalidSpec);
    ASSERT_EQ(submitted.error().details.size(), 1u);
    EXPECT_NE(submitted.error().details.front().find("n must be"),
              std::string::npos);
    // The session survives a rejected submission.
    EXPECT_TRUE(session.submit(montecarloSpecs(2)).ok());
}

TEST(Session, SubmitRejectsMixedKinds)
{
    Session session({.threads = 1});
    const std::vector<ExperimentSpec> specs = {
        parseSpec("experiment=cache").spec,
        parseSpec("experiment=bandwidth").spec};
    const auto submitted = session.submit(specs);
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.error().code, ErrorCode::MixedKinds);
}

/** The InvalidSpec details of submitting @p text alone; empty and a
 *  test failure when the submission is accepted. */
std::vector<std::string>
rejection(Session &session, const std::string &text)
{
    const auto parsed = parseSpec(text);
    EXPECT_TRUE(parsed.ok()) << text;
    const auto submitted =
        session.submit(std::vector<ExperimentSpec>{parsed.spec});
    EXPECT_FALSE(submitted.ok()) << text;
    if (submitted.ok())
        return {};
    EXPECT_EQ(submitted.error().code, ErrorCode::InvalidSpec) << text;
    return submitted.error().details;
}

TEST(Session, NoiseFactorBelowOneIsATypedInvalidSpec)
{
    // ecc::EcMonteCarlo exits the process on a noise factor below 1,
    // so the montecarlo range must turn 0.5 away at submit.
    Session session({.threads = 1});
    const auto details = rejection(
        session, "experiment=montecarlo noise_factor=0.5 trials=100");
    ASSERT_EQ(details.size(), 1u);
    EXPECT_NE(details.front().find("noise_factor must be in [1, 100]"),
              std::string::npos);
    EXPECT_TRUE(makeExperiment(
                    parseSpec("experiment=montecarlo noise_factor=1").spec)
                    ->validate()
                    .empty());
    // The session survives a rejected submission.
    EXPECT_TRUE(session.submit(montecarloSpecs(2)).ok());
}

TEST(Session, CapacityMultiplierTooLargeToSizeACacheIsRejected)
{
    // capacity_x * PE qubits is cast to an integer capacity; 1e30 is
    // past any integer, so it must be an InvalidSpec, not a cast.
    Session session({.threads = 1});
    for (const char *kind : {"cache", "trace"}) {
        const std::string base =
            std::string("experiment=") + kind + " n=16 capacity_x=";
        const auto details = rejection(session, base + "1e30");
        ASSERT_EQ(details.size(), 1u) << kind;
        EXPECT_NE(details.front().find("capacity_x must be in (0, 1000]"),
                  std::string::npos)
            << details.front();
        EXPECT_TRUE(makeExperiment(parseSpec(base + "1000").spec)
                        ->validate()
                        .empty())
            << kind;
    }
}

TEST(Session, ValuesOutsideTheParsersBoundsAreInvalidSpecs)
{
    // Specs built in C++ never pass through the parser, so validate()
    // must apply its bounds: a row whose spec column parseSpec refuses
    // could not be re-run.
    const struct
    {
        const char *key;
        ExperimentKind kind;
        void (*set)(ExperimentSpec &);
    } cases[] = {
        {"blocks", ExperimentKind::Bandwidth,
         [](ExperimentSpec &s) { s.blocks = 0; }},
        {"gates", ExperimentKind::Trace,
         [](ExperimentSpec &s) {
             s.workload = "random";
             s.n = 8;
             s.gates = 0;
         }},
        {"transfers", ExperimentKind::Trace,
         [](ExperimentSpec &s) {
             s.n = 16;
             s.transfers = 200000;
         }},
        {"mem_banks", ExperimentKind::Trace,
         [](ExperimentSpec &s) {
             s.n = 16;
             s.mem_banks = 5000;
         }},
        {"blocks", ExperimentKind::Hierarchy,
         [](ExperimentSpec &s) { s.blocks = 2000000; }},
        {"cycles_per_line", ExperimentKind::Trace,
         [](ExperimentSpec &s) {
             s.n = 16;
             s.cycles_per_line = 2000000000;
         }},
        {"reps", ExperimentKind::Cache,
         [](ExperimentSpec &s) {
             s.workload = "modexp";
             s.n = 16;
             s.reps = 20000;
         }},
    };
    Session session({.threads = 1});
    for (const auto &c : cases) {
        ExperimentSpec spec;
        spec.kind = c.kind;
        c.set(spec);
        const auto text = printSpec(spec);
        EXPECT_FALSE(parseSpec(text).ok()) << text;
        const auto submitted =
            session.submit(std::vector<ExperimentSpec>{spec});
        ASSERT_FALSE(submitted.ok()) << text;
        EXPECT_EQ(submitted.error().code, ErrorCode::InvalidSpec) << text;
        const auto &details = submitted.error().details;
        ASSERT_EQ(details.size(), 1u) << text;
        EXPECT_NE(details.front().find(std::string(": ") + c.key + "="),
                  std::string::npos)
            << details.front();
    }
}

/** A legal non-default value of every spec key but `experiment`. */
const std::vector<std::pair<std::string, std::string>> &
nonDefaultValues()
{
    static const std::vector<std::pair<std::string, std::string>> values =
        {{"machine", "now"},        {"code", "bacon-shor"},
         {"workload", "ripple"},    {"n", "64"},
         {"gates", "64"},           {"reps", "2"},
         {"transfers", "4"},        {"blocks", "16"},
         {"mem_banks", "2"},        {"mem_ports", "2"},
         {"mem_buffer", "4"},       {"cycles_per_line", "1"},
         {"capacity", "64"},        {"capacity_x", "2"},
         {"policy", "inorder"},     {"warm", "1"},
         {"mask_data", "0"},        {"level", "1"},
         {"utilization", "0.5"},    {"p0", "0.001"},
         {"trials", "100"},         {"noise_factor", "3"}};
    return values;
}

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(SpecKeys, EveryKindRejectsEveryKeyItDoesNotRead)
{
    // Kind x key: a non-default value of a key the kind reads passes
    // validation; of any other key it is an InvalidSpec through
    // Session::submit and through the JSONL service, naming the kind's
    // keys as the valid ones, and the service keeps serving.
    ASSERT_EQ(nonDefaultValues().size() + 1, specKeys().size());
    Session session({.threads = 1});
    std::string requests;
    std::size_t foreign = 0;
    for (const auto &kind : experimentKindNames()) {
        const auto keys = kindKeys(*parseKind(kind));
        for (const auto &[key, value] : nonDefaultValues()) {
            // Keys only some generators read are walked below.
            if (contains(keys, "workload") &&
                (key == "gates" || key == "reps" || key == "mask_data"))
                continue;
            const auto text =
                "experiment=" + kind + " " + key + "=" + value;
            if (contains(keys, key)) {
                EXPECT_TRUE(makeExperiment(parseSpec(text).spec)
                                ->validate()
                                .empty())
                    << text;
                continue;
            }
            const auto details = rejection(session, text);
            ASSERT_EQ(details.size(), 1u) << text;
            const auto &detail = details.front();
            EXPECT_NE(detail.find("unknown " + kind + " key '" + key +
                                  "'; valid " + kind + " key names: " +
                                  keys.front()),
                      std::string::npos)
                << detail;
            requests += "{\"id\":\"" + kind + "." + key +
                        "\",\"specs\":[\"" + text + "\"]}\n";
            ++foreign;
        }
    }
    EXPECT_GT(foreign, 40u);

    requests += "{\"id\":\"after\",\"specs\":[\"experiment=bandwidth\"]}\n";
    std::istringstream in(requests);
    std::ostringstream out;
    server::runService(session, in, out);
    std::istringstream records(out.str());
    std::size_t invalid = 0;
    std::string record;
    std::string last;
    while (std::getline(records, record)) {
        if (record.find("\"code\":\"invalid_spec\"") != std::string::npos)
            ++invalid;
        last = record;
    }
    EXPECT_EQ(invalid, foreign);
    EXPECT_NE(last.find("\"type\":\"done\",\"id\":\"after\",\"rows\":1"),
              std::string::npos)
        << last;
}

TEST(SpecKeys, ValueWithASpaceIsATypedInvalidSpec)
{
    // Only a spec built in C++ can hold a space; its printed form then
    // splits into a token without '=', which must stay a diagnostic.
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Trace;
    spec.workload = "draper x";
    Session session({.threads = 1});
    const auto submitted =
        session.submit(std::vector<ExperimentSpec>{spec});
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.error().code, ErrorCode::InvalidSpec);
    EXPECT_EQ(submitted.error().details.size(), 2u);
}

TEST(Session, UnknownMachineIsATypedInvalidSpec)
{
    // The text parser refuses machine=mars, but a spec built in C++
    // reaches validate() with it; every kind that reads the machine
    // must turn it away at submit instead of aborting in the point.
    Session session({.threads = 1});
    for (const auto kind : {ExperimentKind::Hierarchy,
                            ExperimentKind::Bandwidth,
                            ExperimentKind::Trace}) {
        ExperimentSpec spec;
        spec.kind = kind;
        spec.machine = "mars";
        const auto submitted =
            session.submit(std::vector<ExperimentSpec>{spec});
        ASSERT_FALSE(submitted.ok()) << kindName(kind);
        EXPECT_EQ(submitted.error().code, ErrorCode::InvalidSpec);
        ASSERT_EQ(submitted.error().details.size(), 1u) << kindName(kind);
        EXPECT_NE(submitted.error().details.front().find(
                      "machine=mars: expected now | future"),
                  std::string::npos)
            << submitted.error().details.front();
    }
    // The session survives the rejected submissions.
    EXPECT_TRUE(session.submit(montecarloSpecs(2)).ok());
}

TEST(SpecKeys, WorkloadKeysBelongToTheGeneratorsThatReadThem)
{
    // gates, reps and mask_data are read by the cache and trace kinds
    // only for the generators that list them; under any other
    // generator a non-default value is an InvalidSpec.
    Session session({.threads = 1});
    for (const char *kind : {"cache", "trace"})
        for (const auto &generator : workloadRegistry())
            for (const auto &[key, value] :
                 {std::pair<std::string, std::string>{"gates", "64"},
                  {"reps", "2"},
                  {"mask_data", "0"}}) {
                const auto text = std::string("experiment=") + kind +
                                  " n=16 workload=" + generator.name +
                                  " " + key + "=" + value;
                if (contains(generator.keys, key))
                    EXPECT_TRUE(makeExperiment(parseSpec(text).spec)
                                    ->validate()
                                    .empty())
                        << text;
                else
                    EXPECT_EQ(rejection(session, text).size(), 1u)
                        << text;
            }
}

TEST(Session, SubmitRejectsSeedCountMismatch)
{
    Session session({.threads = 1});
    SubmitOptions options;
    options.seeds = {1, 2, 3};
    const auto submitted =
        session.submit(montecarloSpecs(2), std::move(options));
    ASSERT_FALSE(submitted.ok());
    EXPECT_EQ(submitted.error().code, ErrorCode::BadSeeds);
}

TEST(Session, EmptySubmitIsAFinishedJob)
{
    Session session({.threads = 1});
    auto submitted = session.submit(std::vector<ExperimentSpec>{});
    ASSERT_TRUE(submitted.ok());
    auto job = submitted.value();
    EXPECT_TRUE(job.progress().finished);
    EXPECT_FALSE(job.nextRow().has_value());
    const auto result = job.wait();
    EXPECT_EQ(result.table.rows(), 0u);
    EXPECT_EQ(result.table.columnNames(),
              (std::vector<std::string>{"spec", "seed"}));
}

TEST(Session, WaitMatchesBlockingRunTable)
{
    const auto specs = montecarloSpecs(6);
    const sweep::SweepOptions options{.threads = 3,
                                      .base_seed = 2024};
    const auto blocking = tests::runTable(specs, options);

    Session session(options);
    auto job = session.submit(specs).value();
    const auto result = job.wait();
    EXPECT_FALSE(result.cancelled);
    EXPECT_FALSE(result.failure.has_value());
    EXPECT_EQ(result.completed, specs.size());
    EXPECT_EQ(csvOf(result.table), csvOf(blocking));
    // wait() is idempotent: it snapshots, it does not consume.
    EXPECT_EQ(csvOf(job.wait().table), csvOf(blocking));
}

TEST(Session, RowsStreamInIndexOrderWhileRunning)
{
    const auto specs = montecarloSpecs(8);
    Session session({.threads = 4, .base_seed = 99});
    auto job = session.submit(specs).value();
    ASSERT_EQ(job.columns().back(), "seed");

    std::vector<std::vector<sweep::Cell>> streamed;
    std::size_t last_done = 0;
    while (auto row = job.nextRow()) {
        streamed.push_back(std::move(*row));
        const auto progress = job.progress();
        // Monotonic counters, and streamable never outruns done.
        EXPECT_GE(progress.done, last_done);
        EXPECT_LE(progress.streamable, progress.done);
        EXPECT_GE(progress.streamable, streamed.size());
        last_done = progress.done;
    }
    ASSERT_EQ(streamed.size(), specs.size());

    const auto result = job.wait();
    for (std::size_t r = 0; r < streamed.size(); ++r)
        for (std::size_t c = 0; c < result.table.columns(); ++c)
            EXPECT_EQ(streamed[r][c].toString(),
                      result.table.cell(r, c).toString());
    // The spec column lands in submission order: streaming is by
    // index, not by completion.
    const auto spec_col = *result.table.findColumn("spec");
    for (std::size_t r = 0; r < specs.size(); ++r)
        EXPECT_EQ(result.table.cell(r, spec_col).toString(),
                  printSpec(specs[r]));
}

TEST(Session, PollRowReportsPendingAndEnd)
{
    Session session({.threads = 1});
    auto job = session.submit(montecarloSpecs(2)).value();
    std::vector<sweep::Cell> row;
    std::size_t got = 0;
    for (;;) {
        const auto poll = job.pollRow(row);
        if (poll == RowPoll::End)
            break;
        if (poll == RowPoll::Ready)
            ++got;
        // Pending: the next in-order row has not completed yet; a
        // real caller would do other work here.
    }
    EXPECT_EQ(got, 2u);
    EXPECT_EQ(job.pollRow(row), RowPoll::End);
}

/**
 * The cancellation-determinism contract (issue satellite): rows the
 * cancelled job *did* return are bit-identical to the same prefix of
 * an uncancelled single-thread run, no matter where the cut landed.
 */
TEST(Session, CancelledPrefixMatchesUncancelledSingleThreadRun)
{
    const auto specs = montecarloSpecs(16);
    const std::uint64_t seed = 77;
    const auto reference =
        tests::runTable(specs, {.threads = 1, .base_seed = seed});

    Session session({.threads = 4, .base_seed = seed});
    auto job = session.submit(specs).value();
    for (int consumed = 0; consumed < 3; ++consumed)
        ASSERT_TRUE(job.nextRow().has_value());
    job.cancel();
    const auto result = job.wait();

    EXPECT_TRUE(result.cancelled);
    ASSERT_GE(result.completed, 3u);  // streamed rows are in the prefix
    ASSERT_LE(result.completed, specs.size());
    EXPECT_EQ(result.executed + result.skipped, specs.size());
    for (std::size_t r = 0; r < result.completed; ++r)
        for (std::size_t c = 0; c < result.table.columns(); ++c)
            EXPECT_EQ(result.table.cell(r, c).toString(),
                      reference.cell(r, c).toString())
                << "prefix row " << r << " diverged";
}

/** A minimal injectable experiment for lifecycle tests. */
class ScriptedExperiment final : public Experiment
{
  public:
    using Behavior = std::function<double(std::size_t index)>;

    ScriptedExperiment(std::size_t index, Behavior behavior)
        : Experiment(ExperimentSpec{}), _index(index),
          _behavior(std::move(behavior))
    {
    }

    std::string name() const override { return "scripted"; }

    std::vector<std::string> validate() const override { return {}; }

    std::vector<std::string> columns() const override
    {
        return {"spec", "value"};
    }

    std::vector<sweep::Cell> run(Random &) const override
    {
        return {printSpec(_spec), _behavior(_index)};
    }

  private:
    std::size_t _index;
    Behavior _behavior;
};

std::vector<std::unique_ptr<Experiment>>
scriptedBatch(std::size_t points,
              const ScriptedExperiment::Behavior &behavior)
{
    std::vector<std::unique_ptr<Experiment>> experiments;
    for (std::size_t i = 0; i < points; ++i)
        experiments.push_back(
            std::make_unique<ScriptedExperiment>(i, behavior));
    return experiments;
}

/**
 * Pin the exact cancellation semantics with a gated experiment: the
 * in-flight point finishes, every unclaimed point is skipped, and
 * the counts come out deterministic because the gate serializes the
 * race the real engines would leave to timing.
 */
TEST(Session, CancelFinishesInFlightAndSkipsUnclaimed)
{
    std::latch started{1};
    std::latch gate{1};
    Session session({.threads = 1});
    auto job = session
                   .submit(scriptedBatch(
                       4,
                       [&](std::size_t index) {
                           if (index == 1) {
                               started.count_down();
                               gate.wait();
                           }
                           return static_cast<double>(index);
                       }))
                   .value();

    ASSERT_TRUE(job.nextRow().has_value());  // point 0 done
    started.wait();   // the single worker is now inside point 1
    job.cancel();     // points 2 and 3 are unclaimed -> skipped
    gate.count_down();

    const auto result = job.wait();
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.completed, 2u);  // in-flight point 1 finished
    EXPECT_EQ(result.executed, 2u);
    EXPECT_EQ(result.skipped, 2u);
    EXPECT_FALSE(result.failure.has_value());
    // The stream drains the remaining prefix row, then ends.
    ASSERT_TRUE(job.nextRow().has_value());
    EXPECT_FALSE(job.nextRow().has_value());
}

/**
 * The teardown promise: destroying a session cancels every queued job
 * and its workers drain them, so handles that outlive the session see
 * finished, cancelled jobs whose unclaimed points were skipped.
 */
TEST(Session, DestroyedSessionRetiresQueuedJobsAsCancelled)
{
    std::latch started{1};
    std::latch gate{1};
    auto session =
        std::make_unique<Session>(sweep::SweepOptions{.threads = 1});
    auto a = session
                 ->submit(scriptedBatch(2,
                                        [&](std::size_t index) {
                                            if (index == 0) {
                                                started.count_down();
                                                gate.wait();
                                            }
                                            return 0.0;
                                        }))
                 .value();
    auto b = session
                 ->submit(scriptedBatch(
                     3, [](std::size_t) { return 1.0; }))
                 .value();
    started.wait();  // the single worker is inside A's point 0

    std::thread destroyer([&session]() { session.reset(); });
    while (!a.progress().cancel_requested)
        std::this_thread::yield();
    gate.count_down();
    destroyer.join();

    const auto pa = a.progress();
    EXPECT_EQ(pa.done, 1u);
    EXPECT_EQ(pa.skipped, 1u);
    EXPECT_TRUE(pa.finished);
    EXPECT_TRUE(a.wait().cancelled);
    const auto pb = b.progress();
    EXPECT_EQ(pb.done, 0u);
    EXPECT_EQ(pb.skipped, 3u);
    EXPECT_TRUE(pb.finished);
    EXPECT_TRUE(b.wait().cancelled);

    ASSERT_TRUE(a.nextRow().has_value());  // A's finished point 0
    EXPECT_FALSE(a.nextRow().has_value());
    EXPECT_FALSE(b.nextRow().has_value());
}

/**
 * The session's queue is FIFO: a later job starts only once every
 * point of the earlier one is claimed. B and C both wait behind A,
 * so a queue that served the newest job first would run C before B.
 */
TEST(Session, LaterJobRunsOnlyAfterEarlierJobIsClaimed)
{
    std::latch started{1};
    std::latch gate{1};
    std::mutex log_mutex;
    std::vector<std::string> log;
    const auto logged = [&](std::string job) {
        return [&, job](std::size_t index) {
            if (job == "A" && index == 0) {
                started.count_down();
                gate.wait();
            }
            std::lock_guard<std::mutex> lock(log_mutex);
            log.push_back(job + std::to_string(index));
            return static_cast<double>(index);
        };
    };

    Session session({.threads = 1});
    auto a = session.submit(scriptedBatch(2, logged("A"))).value();
    started.wait();  // the single worker is inside A's point 0
    auto b = session.submit(scriptedBatch(2, logged("B"))).value();
    auto c = session.submit(scriptedBatch(1, logged("C"))).value();
    EXPECT_EQ(b.progress().done, 0u);
    EXPECT_EQ(c.progress().done, 0u);
    gate.count_down();

    EXPECT_EQ(a.wait().completed, 2u);
    EXPECT_EQ(b.wait().completed, 2u);
    EXPECT_EQ(c.wait().completed, 1u);
    EXPECT_EQ(log, (std::vector<std::string>{"A0", "A1", "B0", "B1",
                                             "C0"}));
}

TEST(Session, ThrowingExperimentRetiresJobWithTypedFailure)
{
    Session session({.threads = 1});
    auto job = session
                   .submit(scriptedBatch(
                       3,
                       [](std::size_t index) -> double {
                           if (index == 1)
                               throw std::runtime_error("boom");
                           return 1.0;
                       }))
                   .value();
    const auto result = job.wait();
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->code, ErrorCode::ExecutionFailed);
    EXPECT_NE(result.failure->message.find("boom"),
              std::string::npos);
    EXPECT_EQ(result.completed, 1u);  // the prefix before the throw
    EXPECT_EQ(result.executed, 2u);   // the failed point *did* run
    EXPECT_EQ(result.skipped, 1u);    // only the never-claimed tail
    EXPECT_TRUE(result.cancelled);    // the failure cancels the rest

    // The session (and its pool) stay usable after a failed job.
    auto next = session.submit(montecarloSpecs(2)).value();
    EXPECT_EQ(next.wait().completed, 2u);
}

TEST(Session, WaitCountsIsWaitWithoutTheRows)
{
    Session session({.threads = 2, .base_seed = 7});
    auto job = session.submit(montecarloSpecs(5)).value();
    const auto counts = job.waitCounts();
    const auto full = job.wait();
    EXPECT_EQ(counts.table.rows(), 0u);
    EXPECT_EQ(counts.table.columnNames(), full.table.columnNames());
    EXPECT_EQ(full.table.rows(), 5u);
    EXPECT_EQ(counts.completed, full.completed);
    EXPECT_EQ(counts.executed, full.executed);
    EXPECT_EQ(counts.skipped, full.skipped);
    EXPECT_EQ(counts.cancelled, full.cancelled);
    EXPECT_FALSE(counts.failure.has_value());

    // A failure reaches it too.
    auto failing = session
                       .submit(scriptedBatch(
                           3,
                           [](std::size_t index) -> double {
                               if (index == 1)
                                   throw std::runtime_error("boom");
                               return 1.0;
                           }))
                       .value();
    const auto failed = failing.waitCounts();
    ASSERT_TRUE(failed.failure.has_value());
    EXPECT_EQ(failed.failure->code, ErrorCode::ExecutionFailed);
    EXPECT_EQ(failed.executed, failing.wait().executed);
}

TEST(Session, WrongRowWidthIsAnExecutionFailure)
{
    class WrongWidth final : public Experiment
    {
      public:
        WrongWidth() : Experiment(ExperimentSpec{}) {}
        std::string name() const override { return "wrong"; }
        std::vector<std::string> validate() const override
        {
            return {};
        }
        std::vector<std::string> columns() const override
        {
            return {"spec", "a", "b"};
        }
        std::vector<sweep::Cell> run(Random &) const override
        {
            return {printSpec(_spec)};  // 1 cell for 3 columns
        }
    };

    Session session({.threads = 1});
    std::vector<std::unique_ptr<Experiment>> experiments;
    experiments.push_back(std::make_unique<WrongWidth>());
    const auto result =
        session.submit(std::move(experiments)).value().wait();
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->code, ErrorCode::ExecutionFailed);
    EXPECT_EQ(result.completed, 0u);
}

TEST(Session, EngineFatalCheckIsAnExecutionFailure)
{
    // An experiment that passes validate() but builds an engine whose
    // own check refuses the input: the engine throws, the job ends
    // ExecutionFailed, and the session keeps serving jobs.
    class BadNoiseFactor final : public Experiment
    {
      public:
        BadNoiseFactor() : Experiment(ExperimentSpec{}) {}
        std::string name() const override { return "bad-noise"; }
        std::vector<std::string> validate() const override
        {
            return {};
        }
        std::vector<std::string> columns() const override
        {
            return {"spec"};
        }
        std::vector<sweep::Cell> run(Random &) const override
        {
            const ecc::EcMonteCarlo mc(ecc::Code::steane(), 0.5);
            return {printSpec(_spec)};
        }
    };

    Session session({.threads = 1});
    std::vector<std::unique_ptr<Experiment>> experiments;
    experiments.push_back(std::make_unique<BadNoiseFactor>());
    auto submitted = session.submit(std::move(experiments));
    ASSERT_TRUE(submitted.ok());
    const auto result = submitted.value().wait();
    ASSERT_TRUE(result.failure.has_value());
    EXPECT_EQ(result.failure->code, ErrorCode::ExecutionFailed);
    EXPECT_NE(result.failure->message.find("ec_noise_factor"),
              std::string::npos)
        << result.failure->message;
    EXPECT_EQ(result.completed, 0u);

    auto next = session.submit(montecarloSpecs(2)).value();
    EXPECT_EQ(next.wait().completed, 2u);
}

TEST(Session, ExplicitSeedsDriveThePointStreams)
{
    // Explicit seeds land in the seed column verbatim, and repeating
    // a seed reproduces its row exactly — the property
    // opt::CachedJob builds spec-addressed replay on.
    const auto spec =
        parseSpec("experiment=montecarlo trials=400").spec;
    Session session({.threads = 2});
    SubmitOptions options;
    options.seeds = {5, 6, 5};
    auto job = session
                   .submit(std::vector<ExperimentSpec>{spec, spec,
                                                       spec},
                           std::move(options))
                   .value();
    const auto result = job.wait();
    ASSERT_EQ(result.completed, 3u);
    const auto failures = *result.table.findColumn("failures");
    const auto seed_col = *result.table.findColumn("seed");
    EXPECT_EQ(result.table.cell(0, seed_col).toString(), "5");
    EXPECT_EQ(result.table.cell(1, seed_col).toString(), "6");
    EXPECT_EQ(result.table.cell(0, failures).toString(),
              result.table.cell(2, failures).toString());
}

} // namespace
} // namespace api
} // namespace qmh
