// The two in-process sweep workloads: one caller drives an
// api::Session with one worker, closed loop, 48 trace points per
// request. One worker, so a request's time is the sum of its points'
// work, not the slowest of several workers on a shared host.
//
//  - sweep_shared: one circuit per request over a 48-point design grid
//    (transfers x capacity_x x mem_banks x mem_ports), the Table 5 /
//    Fig. 7 pattern. Every point regenerates the same circuit and
//    rebuilds its DAG, so this workload shows a gain from sharing
//    per-point work across a request.
//  - sweep_distinct: 48 different circuits per request, nothing to
//    share; the time goes to trace::runTrace, so this is the workload
//    a kernel change must move.

#include <algorithm>

#include "api/grid.hh"
#include "bench.hh"
#include "common/random.hh"
#include "sweep/sweep.hh"

namespace perfbench {

namespace {

constexpr unsigned kWorkers = 1;
constexpr std::size_t kPoints = 48;
/** Requests in one pass; a run is a number of identical passes. */
constexpr std::size_t kSharedRequests = 60;
constexpr std::size_t kDistinctRequests = 40;
/**
 * Passes per --seconds. The work is fixed by the seed and these rates,
 * never by a clock; they size the timed phase to about --seconds with
 * one worker on a 4-CPU x86 host.
 */
constexpr double kSharedPassesPerSecond = 0.72;
constexpr double kDistinctPassesPerSecond = 1.13;
/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 5;
/** The warm-up request takes every kWarmUpStride-th point of a pass. */
constexpr std::size_t kWarmUpStride = 4;

ExperimentSpec
traceSpec(const char *workload, int n)
{
    ExperimentSpec spec;
    spec.kind = qmh::api::ExperimentKind::Trace;
    spec.workload = workload;
    spec.n = n;
    return spec;
}

template <typename T>
void
shuffle(std::vector<T> &items, qmh::Random &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(i)]);
}

/**
 * @p count integers spread evenly over [lo, hi]: one draw inside each
 * of @p count equal strata, shuffled. Every seed draws nearly the same
 * multiset, which keeps runs with different seeds comparable.
 */
std::vector<int>
spread(qmh::Random &rng, int lo, int hi, std::size_t count)
{
    std::vector<int> values;
    const double width = static_cast<double>(hi - lo + 1) /
                         static_cast<double>(count);
    for (std::size_t j = 0; j < count; ++j)
        values.push_back(lo + static_cast<int>(
                                  (static_cast<double>(j) + rng.uniform()) *
                                  width));
    shuffle(values, rng);
    return values;
}

/** One value of @p choices per point, each as often as the others. */
template <typename T, std::size_t N>
std::vector<T>
spreadChoices(const T (&choices)[N], qmh::Random &rng, std::size_t count)
{
    std::vector<T> values;
    for (const int index : spread(rng, 0, static_cast<int>(N) - 1, count))
        values.push_back(choices[index]);
    return values;
}

/**
 * sweep_shared requests: one circuit each, over the 48-point design
 * grid. The circuits come from six strata visited in a freshly
 * shuffled order every six requests, with n spread over each stratum,
 * so consecutive requests rarely repeat a circuit.
 */
std::vector<SessionRequest>
sharedRequests(qmh::Random &rng, std::size_t count)
{
    struct Stratum
    {
        const char *workload;
        int lo, hi;
    };
    static const Stratum strata[] = {
        {"draper", 24, 48}, {"draper", 49, 96}, {"ripple", 24, 48},
        {"ripple", 49, 96}, {"modexp", 12, 24}, {"modexp", 25, 40}};
    constexpr std::size_t kStrata = std::size(strata);
    const std::size_t rounds = (count + kStrata - 1) / kStrata;

    std::vector<std::vector<int>> sizes;
    for (const auto &stratum : strata)
        sizes.push_back(spread(rng, stratum.lo, stratum.hi, rounds));
    std::vector<std::size_t> order(kStrata);
    std::vector<SessionRequest> requests;
    for (std::size_t r = 0; r < count; ++r) {
        if (r % kStrata == 0) {
            for (std::size_t i = 0; i < kStrata; ++i)
                order[i] = i;
            shuffle(order, rng);
        }
        const auto s = order[r % kStrata];
        qmh::api::SpecGrid grid;
        grid.base = traceSpec(strata[s].workload, sizes[s][r / kStrata]);
        grid.axis("transfers", {"2", "5", "10", "20"});
        grid.axis("capacity_x", {"0.5", "1", "2"});
        grid.axis("mem_banks", {"4", "16"});
        grid.axis("mem_ports", {"2", "8"});
        requests.push_back({grid.expand(), {}});
    }
    return requests;
}

/**
 * sweep_distinct requests: every point its own circuit. The five
 * generators rotate through the points so each request holds the same
 * mix; each generator's sizes and memory knobs are spread over their
 * ranges and dealt out per point.
 */
std::vector<SessionRequest>
distinctRequests(qmh::Random &rng, std::size_t count)
{
    struct Generator
    {
        const char *workload;
        int lo, hi;
    };
    static const Generator generators[] = {{"draper", 16, 96},
                                           {"ripple", 16, 96},
                                           {"modexp", 8, 32},
                                           {"qft", 8, 40},
                                           {"random", 8, 48}};
    static const unsigned transfers[] = {2, 5, 10, 20};
    static const double capacity_x[] = {0.5, 1.0, 2.0};
    static const unsigned banks[] = {4, 8, 16};
    static const unsigned ports[] = {2, 4, 8};
    constexpr std::size_t kGenerators = std::size(generators);

    // Each generator deals from two packs: one for the first point of
    // a request, which sets first_row_ms, and one for the others; both
    // are spread over the generator's ranges.
    const auto pack = [](std::size_t g, std::size_t i) {
        return 2 * g + (i == 0 ? 1 : 0);
    };
    std::vector<std::size_t> pack_size(2 * kGenerators, 0);
    for (std::size_t r = 0; r < count; ++r)
        for (std::size_t i = 0; i < kPoints; ++i)
            ++pack_size[pack((r + i) % kGenerators, i)];
    struct Deal
    {
        std::vector<int> n, reps, gates;
        std::vector<unsigned> transfers, banks, ports;
        std::vector<double> capacity_x;
    };
    std::vector<Deal> deals;
    for (std::size_t d = 0; d < pack_size.size(); ++d) {
        const auto &generator = generators[d / 2];
        const auto points = pack_size[d];
        deals.push_back({spread(rng, generator.lo, generator.hi, points),
                         spread(rng, 2, 4, points),
                         spread(rng, 128, 768, points),
                         spreadChoices(transfers, rng, points),
                         spreadChoices(banks, rng, points),
                         spreadChoices(ports, rng, points),
                         spreadChoices(capacity_x, rng, points)});
    }

    std::vector<std::size_t> dealt(pack_size.size(), 0);
    std::vector<SessionRequest> requests(count);
    for (std::size_t r = 0; r < count; ++r) {
        for (std::size_t i = 0; i < kPoints; ++i) {
            const auto g = (r + i) % kGenerators;
            const auto d = pack(g, i);
            const auto k = dealt[d]++;
            const auto &deal = deals[d];
            auto spec = traceSpec(generators[g].workload, deal.n[k]);
            if (spec.workload == "modexp")
                spec.reps = deal.reps[k];
            if (spec.workload == "random")
                spec.gates = deal.gates[k];
            spec.transfers = deal.transfers[k];
            spec.capacity_x = deal.capacity_x[k];
            spec.mem_banks = deal.banks[k];
            spec.mem_ports = deal.ports[k];
            requests[r].specs.push_back(std::move(spec));
        }
    }
    return requests;
}

/** A ready session with its inputs; the warm-up request has run. */
struct SweepSetup
{
    std::unique_ptr<qmh::api::Session> session;
    std::vector<SessionRequest> requests; ///< one pass
    double seconds = 0.0;
};

SweepSetup
setUp(const Options &options, bool distinct)
{
    const auto start = Clock::now();
    SweepSetup setup;
    setup.session = std::make_unique<qmh::api::Session>(
        qmh::sweep::SweepOptions{kWorkers, options.seed});
    qmh::Random rng(options.seed);
    setup.requests = distinct ? distinctRequests(rng, kDistinctRequests)
                              : sharedRequests(rng, kSharedRequests);
    // The one untimed warm-up request holds every kWarmUpStride-th
    // point of every request of the pass: the pool, the allocator and
    // the baseline memo see every circuit before the timed phase, and
    // the warm-up costs the same share of a pass whatever the seed.
    std::vector<ExperimentSpec> warm_up;
    for (const auto &request : setup.requests)
        for (std::size_t i = 0; i < kPoints; i += kWarmUpStride)
            warm_up.push_back(request.specs[i]);
    auto job = setup.session->submit(warm_up);
    if (!job.ok() || job.value().wait().completed != warm_up.size()) {
        std::fprintf(stderr, "perfbench: the warm-up request failed\n");
        std::exit(1);
    }
    setup.seconds = microsBetween(start, Clock::now()) / 1e6;
    return setup;
}

/** The untraced timed phase: plain Session::submit(specs), closed loop. */
struct Phase
{
    std::vector<RequestTiming> timings;
    std::vector<Chunk> chunks; ///< one per pass
    std::size_t failed = 0;
    /** The first pass's row digest; every later pass must match it. */
    std::optional<Digest> digest;
    std::vector<std::string> problems;
};

/**
 * One untraced pass over @p requests, appended to @p phase as one
 * chunk; returns the digest of this pass's rows.
 */
std::uint64_t
untracedPass(qmh::api::Session &session,
             const std::vector<SessionRequest> &requests,
             std::uint64_t base_seed, Phase &phase)
{
    std::optional<CellReader> reader;
    Digest digest;
    const auto pass_start = Clock::now();
    Chunk chunk;
    for (const auto &request : requests) {
        const auto submitted_at = Clock::now();
        qmh::api::SubmitOptions submit;
        submit.base_seed = base_seed;
        auto submitted = session.submit(request.specs, std::move(submit));
        if (!submitted.ok()) {
            phase.problems.push_back(submitted.error().describe());
            phase.failed += request.specs.size();
            continue;
        }
        auto job = std::move(submitted).value();
        if (!reader)
            reader.emplace(job.columns());
        RequestTiming timing;
        timing.chunk = phase.chunks.size();
        std::size_t delivered = 0;
        while (auto row = job.nextRow()) {
            if (delivered++ == 0)
                timing.first_row_ms =
                    microsBetween(submitted_at, Clock::now()) / 1000.0;
            const auto problem = checkTraceRow(reader->read(*row));
            if (problem.empty())
                ++chunk.valid;
            else {
                ++phase.failed;
                phase.problems.push_back(problem);
            }
            digestRow(digest, *row);
        }
        const auto result = job.wait();
        timing.request_ms =
            microsBetween(submitted_at, Clock::now()) / 1000.0;
        phase.timings.push_back(timing);
        phase.failed += request.specs.size() - delivered;
        if (result.failure)
            phase.problems.push_back(result.failure->describe());
    }
    chunk.seconds = microsBetween(pass_start, Clock::now()) / 1e6;
    phase.chunks.push_back(chunk);
    if (!phase.digest)
        phase.digest = digest;
    else if (digest.value() != phase.digest->value())
        phase.problems.push_back("a pass's rows differ from the first's");
    return digest.value();
}

void
reportProblems(Report &report, const std::vector<std::string> &problems)
{
    for (std::size_t i = 0; i < problems.size() && i < 5; ++i)
        report.fail(problems[i]);
    if (problems.size() > 5)
        report.note("... " + std::to_string(problems.size() - 5) +
                    " more problem(s)");
}

/**
 * The traced run: untraced and traced passes alternate on one session,
 * and after each pair a slice of the pass's points is replayed stage by
 * stage, so host noise reaches all three alike; the untraced and traced
 * difference is the tracing overhead. Then the wire and store replays
 * and the ledger.
 */
void
traceSweep(Report &report, const Options &options, std::size_t passes,
           SweepSetup &setup)
{
    const auto &requests = setup.requests;
    Phase untraced;
    std::vector<Chunk> traced;
    LayerSamples samples;
    TracedPass first;
    std::optional<CellReader> reader;
    std::vector<std::string> problems;
    for (std::size_t p = 0; p < passes; ++p) {
        const auto digest =
            untracedPass(*setup.session, requests, options.seed, untraced);
        auto pass = tracedSessionPass(*setup.session, requests,
                                      options.seed, kWorkers, samples);
        if (pass.digest.value() != digest)
            report.fail("traced rows differ from the untraced rows");
        traced.push_back(pass.chunk);
        untraced.failed += pass.failed;
        untraced.problems.insert(untraced.problems.end(),
                                 pass.problems.begin(), pass.problems.end());
        if (p == 0) {
            first = std::move(pass);
            reader.emplace(first.columns);
        }
        // Requests r with r % passes == p: every request once per run.
        std::vector<ReplayPoint> slice;
        for (std::size_t r = p; r < requests.size(); r += passes)
            for (std::size_t i = 0; i < first.rows[r].size(); ++i)
                slice.push_back({requests[r].specs[i],
                                 qmh::sweep::pointSeed(options.seed, i),
                                 reader->read(first.rows[r][i])});
        for (auto &problem : replayStages(slice, kPoints, kWorkers, samples))
            problems.push_back(std::move(problem));
    }
    setup.session.reset();
    const std::size_t points = passes * requests.size() * kPoints;
    report.attempted = 2 * points;
    report.failed = untraced.failed;
    reportProblems(report, untraced.problems);
    reportProblems(report, problems);
    checkDigest(report, options, *untraced.digest, untraced.failed == 0);

    std::vector<std::string> lines, keys;
    std::vector<std::uint64_t> seeds;
    std::vector<Row> rows;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        std::vector<std::string> request_keys;
        for (std::size_t i = 0; i < first.rows[r].size(); ++i) {
            request_keys.push_back(qmh::api::printSpec(requests[r].specs[i]));
            seeds.push_back(qmh::sweep::pointSeed(options.seed, i));
            rows.push_back(first.rows[r][i]);
        }
        lines.push_back(
            requestLine("r" + std::to_string(r), request_keys, false));
        keys.insert(keys.end(), request_keys.begin(), request_keys.end());
    }
    const auto problem = replayServiceAndStore(lines, first.columns, keys,
                                               seeds, rows, samples);
    if (!problem.empty())
        report.fail(problem);
    reportLayers(report, samples);
    // Server-only counters; no server runs on the sweep workloads.
    for (const char *name :
         {"server.hits", "server.misses", "server.simulated",
          "server.truncated_requests", "server.retried_points"})
        report.set(name, 0.0, "count");
    report.set("server.hit_ratio", 0.0, "ratio");

    Ledger ledger;
    ledger.untraced_us = kWorkers * 1e6 / medianRate(untraced.chunks);
    ledger.traced_us = kWorkers * 1e6 / medianRate(traced);
    ledger.stages = {
        {"gen.build_us", mean(samples.gen_us)},
        {"trace.run_us", mean(samples.trace_us)},
        {"row.format_us", mean(samples.row_us)},
        {"session overhead (traced worker time - session.run_us)",
         ledger.traced_us - mean(samples.run_us)}};
    reportLedger(report, ledger);
}

} // namespace

Report
runSweep(const Options &options, bool distinct)
{
    const auto passes = std::max<std::size_t>(
        3, static_cast<std::size_t>(
               options.seconds * (distinct ? kDistinctPassesPerSecond
                                           : kSharedPassesPerSecond) +
               0.5));
    auto setup = setUp(options, distinct);
    Report report;
    if (options.trace) {
        // Each traced round runs an untraced and a traced pass, so half
        // the rounds keep the traced run about as long as an untraced one.
        traceSweep(report, options, std::max<std::size_t>(3, passes / 2),
                   setup);
        return report;
    }
    // The further set-ups run between passes, spread over the run, so a
    // burst of host noise cannot reach all of them.
    std::vector<double> setup_s{setup.seconds};
    const std::size_t setup_every = std::max<std::size_t>(1, passes / kSetups);
    Phase phase;
    for (std::size_t p = 0; p < passes; ++p) {
        untracedPass(*setup.session, setup.requests, options.seed, phase);
        if (setup_s.size() < kSetups && (p + 1) % setup_every == 0)
            setup_s.push_back(setUp(options, distinct).seconds);
    }
    const std::size_t points = passes * setup.requests.size() * kPoints;
    report.attempted = points;
    report.failed = phase.failed;
    reportProblems(report, phase.problems);
    checkDigest(report, options, *phase.digest, phase.failed == 0);
    reportEndToEnd(report, phase.timings, phase.chunks, points, setup_s);
    return report;
}

} // namespace perfbench
