// Spans of the traced run. Every span sits around a public call into
// one layer, recorded from the benchmark's own code into memory and
// reported when the run ends; the library itself is not instrumented.

#include <algorithm>
#include <numeric>
#include <thread>

#include "api/service.hh"
#include "api/workload.hh"
#include "bench.hh"
#include "circuit/dag.hh"
#include "sched/scheduler.hh"
#include "server/shared_cache.hh"
#include "trace/engine.hh"

namespace perfbench {

namespace {

struct PointSpan
{
    double run_us = 0.0;
    Clock::time_point end{};
};

/**
 * Delegating experiment: the library's own Experiment runs unchanged
 * on the session worker, with a span around Experiment::run. The
 * worker writes the span before the row is published; the caller
 * reads it only after nextRow() returned that row, which orders the
 * two through the job's lock.
 */
class TracedExperiment final : public qmh::api::Experiment
{
  public:
    TracedExperiment(std::unique_ptr<qmh::api::Experiment> inner,
                     PointSpan &span)
        : Experiment(inner->spec()), _inner(std::move(inner)),
          _span(span)
    {
    }

    std::string name() const override { return _inner->name(); }
    std::vector<std::string> validate() const override
    {
        return _inner->validate();
    }
    std::vector<std::string> columns() const override
    {
        return _inner->columns();
    }

    Row run(qmh::Random &rng) const override
    {
        const auto start = Clock::now();
        auto row = _inner->run(rng);
        const auto end = Clock::now();
        _span.run_us = microsBetween(start, end);
        _span.end = end;
        return row;
    }

  private:
    std::unique_ptr<qmh::api::Experiment> _inner;
    PointSpan &_span;
};

/**
 * The trace kind's spec-to-config mapping, including the cache
 * auto-sizing rule (capacity 0 = capacity_x times the PE qubits,
 * truncated). replayStages checks the replayed result against the
 * session's row, so a drift from the library's mapping shows as a
 * failed check, not as a silently different replay.
 */
qmh::trace::TraceConfig
traceConfig(const ExperimentSpec &spec, const qmh::api::Workload &workload)
{
    qmh::trace::TraceConfig config;
    config.code = spec.code;
    config.blocks = spec.blocks;
    config.transfers = spec.transfers;
    config.capacity = static_cast<std::size_t>(
        spec.capacity != 0
            ? spec.capacity
            : std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(spec.capacity_x *
                                                workload.pe_qubits)));
    config.mem_banks = spec.mem_banks;
    config.mem_ports = spec.mem_ports;
    config.mem_buffer = static_cast<std::size_t>(spec.mem_buffer);
    config.cycles_per_line = spec.cycles_per_line;
    return config;
}

} // namespace

TracedPass
tracedSessionPass(qmh::api::Session &session,
                  const std::vector<SessionRequest> &requests,
                  std::uint64_t base_seed, unsigned workers,
                  LayerSamples &samples)
{
    TracedPass pass;
    pass.rows.resize(requests.size());
    std::optional<CellReader> reader;
    std::vector<PointSpan> spans;
    const auto pass_start = Clock::now();
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const auto &request = requests[r];
        const std::size_t points = request.specs.size();
        spans.assign(points, PointSpan{});

        const auto submitted_at = Clock::now();
        auto validated = qmh::api::validateExperiments(request.specs);
        const auto validated_at = Clock::now();
        if (!validated.ok()) {
            pass.problems.push_back(validated.error().describe());
            pass.failed += points;
            continue;
        }
        samples.validate_us.push_back(
            microsBetween(submitted_at, validated_at) /
            static_cast<double>(points));
        auto experiments = std::move(validated).value();
        std::vector<std::unique_ptr<qmh::api::Experiment>> wrapped;
        wrapped.reserve(points);
        for (std::size_t i = 0; i < points; ++i)
            wrapped.push_back(std::make_unique<TracedExperiment>(
                std::move(experiments[i]), spans[i]));

        qmh::api::SubmitOptions submit;
        submit.base_seed = base_seed;
        submit.seeds = request.seeds;
        auto submitted =
            session.submit(std::move(wrapped), std::move(submit));
        const auto accepted_at = Clock::now();
        if (!submitted.ok()) {
            pass.problems.push_back(submitted.error().describe());
            pass.failed += points;
            continue;
        }
        samples.accepted_ms.push_back(
            microsBetween(submitted_at, accepted_at) / 1000.0);
        auto job = std::move(submitted).value();
        if (!reader) {
            pass.columns = job.columns();
            reader.emplace(pass.columns);
        }

        std::size_t delivered = 0;
        while (auto row = job.nextRow()) {
            samples.wait_us.push_back(
                microsBetween(spans[delivered].end, Clock::now()));
            const auto problem = row->size() == pass.columns.size()
                                     ? checkTraceRow(reader->read(*row))
                                     : "row width != column count";
            if (problem.empty())
                ++pass.chunk.valid;
            else {
                ++pass.failed;
                pass.problems.push_back(problem);
            }
            digestRow(pass.digest, *row);
            pass.rows[r].push_back(std::move(*row));
            ++delivered;
        }
        const auto result = job.wait();
        const auto done_at = Clock::now();
        pass.failed += points - delivered;
        if (result.failure)
            pass.problems.push_back(result.failure->describe());

        double busy_us = 0.0;
        for (std::size_t i = 0; i < delivered; ++i) {
            busy_us += spans[i].run_us;
            samples.run_us.push_back(spans[i].run_us);
        }
        samples.idle_share.push_back(
            1.0 - busy_us / (static_cast<double>(workers) *
                             microsBetween(submitted_at, done_at)));
    }
    pass.chunk.seconds = microsBetween(pass_start, Clock::now()) / 1e6;
    return pass;
}

static std::string
replayPoint(const ExperimentSpec &spec, std::uint64_t seed,
            const TraceRowFields &row, LayerSamples &samples)
{
    const auto params = spec.params();
    qmh::Random rng(seed);
    // Same order as Experiment::run (build, run, format), so runTrace
    // starts from the same cache state as in the session; the DAG and
    // flat-baseline spans, which runTrace contains, are timed after.
    const auto t0 = Clock::now();
    const auto workload = qmh::api::buildWorkload(spec, rng);
    const auto t1 = Clock::now();
    const auto config = traceConfig(spec, workload);
    const auto result = qmh::trace::runTrace(workload, config, params);
    const auto t2 = Clock::now();
    const auto printed = qmh::api::printSpec(spec);
    const auto t3 = Clock::now();
    const qmh::circuit::DependencyGraph dag(workload.program);
    const auto t4 = Clock::now();
    const auto flat = qmh::sched::listSchedule(workload.program, dag,
                                               config.latency,
                                               config.blocks);
    const auto t5 = Clock::now();

    samples.gen_us.push_back(microsBetween(t0, t1));
    samples.trace_us.push_back(microsBetween(t1, t2));
    samples.row_us.push_back(microsBetween(t2, t3));
    samples.dag_us.push_back(microsBetween(t3, t4));
    samples.flat_us.push_back(microsBetween(t4, t5));
    samples.events.push_back(static_cast<double>(result.events_executed));

    if (static_cast<double>(result.events_executed) != row.events ||
        result.makespan_s != row.makespan_s || flat.makespan == 0 ||
        printed.empty())
        return "replay of '" + printed + "' does not reproduce its row";
    return {};
}

std::vector<std::string>
replayStages(const std::vector<ReplayPoint> &points, std::size_t block,
             unsigned threads, LayerSamples &samples)
{
    std::vector<LayerSamples> per_thread(threads);
    std::vector<std::vector<std::string>> problems(threads);
    {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                for (std::size_t b = t * block; b < points.size();
                     b += threads * block)
                    for (std::size_t i = b;
                         i < std::min(b + block, points.size()); ++i) {
                        auto problem =
                            replayPoint(points[i].spec, points[i].seed,
                                        points[i].row, per_thread[t]);
                        if (!problem.empty())
                            problems[t].push_back(std::move(problem));
                    }
            });
        for (auto &thread : pool)
            thread.join();
    }
    std::vector<std::string> all;
    for (unsigned t = 0; t < threads; ++t) {
        const auto &from = per_thread[t];
        for (auto [into, part] :
             {std::pair{&samples.gen_us, &from.gen_us},
              {&samples.dag_us, &from.dag_us},
              {&samples.flat_us, &from.flat_us},
              {&samples.trace_us, &from.trace_us},
              {&samples.row_us, &from.row_us},
              {&samples.events, &from.events}})
            into->insert(into->end(), part->begin(), part->end());
        all.insert(all.end(), problems[t].begin(), problems[t].end());
    }
    return all;
}

std::string
replayServiceAndStore(const std::vector<std::string> &lines,
                      const std::vector<std::string> &columns,
                      const std::vector<std::string> &keys,
                      const std::vector<std::uint64_t> &seeds,
                      const std::vector<Row> &rows, LayerSamples &samples)
{
    for (const auto &line : lines) {
        const auto start = Clock::now();
        const auto decoded = qmh::api::parseServiceRequest(line);
        samples.decode_us.push_back(microsBetween(start, Clock::now()));
        if (!decoded.ok())
            return "replayed request does not decode: " +
                   decoded.error().describe();
    }
    std::size_t encoded_bytes = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto start = Clock::now();
        const auto record =
            qmh::api::recordRow("replay", i, columns, rows[i]);
        samples.encode_us.push_back(microsBetween(start, Clock::now()));
        encoded_bytes += record.size();
    }
    if (encoded_bytes == 0 && !rows.empty())
        return "replayed rows encode to nothing";

    qmh::server::SharedCacheConfig config;
    config.capacity_per_shard = rows.size() + 1;
    qmh::server::SharedCache cache(0, config);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Row engine(rows[i].begin(), rows[i].end() - 1); // no seed cell
        const auto start = Clock::now();
        cache.insert(keys[i], seeds[i], std::move(engine));
        samples.insert_us.push_back(microsBetween(start, Clock::now()));
    }
    for (const auto &key : keys) {
        const auto start = Clock::now();
        const auto hit = cache.lookup(key);
        samples.lookup_us.push_back(microsBetween(start, Clock::now()));
        if (!hit)
            return "replayed store lost '" + key + "'";
    }
    samples.resident = static_cast<double>(cache.stats().resident);
    return {};
}

} // namespace perfbench
