// serve_mixed: an in-process server::Server (one pool thread) on
// loopback with one server::Client connection, closed loop, spec
// seeds. The run pins itself to one CPU before it starts a thread, so
// client, event loop and pool share that CPU: their many hand-offs per
// request are context switches on one CPU, not wake-ups of other,
// possibly idle or preempted, virtual CPUs, and the figures measure the
// server's work rather than the host's scheduling. Set-up primes a hot
// set of 1024 small trace points; every 64-point request then asks for
// 48 hot points and 16 fresh ones that no request has asked for
// before, so the cache's hits and misses are exact counts. This is the
// only workload through the server, the record encoding and decoding
// and SharedCache reads beside writes.
//
// The server can end a stream early without an error: a done record
// with fewer rows than points and "cancelled":true. The client counts
// such streams, asks again for the points that did not arrive (a
// re-request can be cut short the same way, so up to three rounds),
// and counts only points still missing after that as failed.

#include <algorithm>
#include <thread>
#include <unordered_map>

#include <sched.h>

#include "api/service.hh"
#include "bench.hh"
#include "common/random.hh"
#include "opt/result_cache.hh"
#include "server/client.hh"
#include "server/server.hh"

namespace perfbench {

namespace {

constexpr unsigned kPoolThreads = 1;
constexpr std::size_t kClients = 1;
constexpr std::size_t kHotSet = 1024;
constexpr std::size_t kHotPerRequest = 48;
constexpr std::size_t kFreshPerRequest = 16;
constexpr std::size_t kPoints = kHotPerRequest + kFreshPerRequest;
/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 5;
/** Re-requests of points a truncated stream left out, at most. */
constexpr int kRetryRounds = 3;
/** The traced run replays every kReplayEvery-th request. */
constexpr std::size_t kReplayEvery = 4;
/**
 * Requests (all clients together) per --seconds. The work is fixed by
 * the seed and this rate, never by a clock; it sizes the timed phase
 * to about --seconds on one CPU of a 4-CPU x86 host.
 */
constexpr double kRequestsPerSecond = 160.0;
/** Requests per chunk of the timed phase (see Chunk). */
constexpr std::size_t kChunkRequests = 100;
/** ServerConfig's default base seed: the cache's spec-seed base. */
constexpr std::uint64_t kBaseSeed = qmh::server::ServerConfig{}.base_seed;

template <typename T, std::size_t N>
const T &
pick(const T (&choices)[N], qmh::Random &rng)
{
    return choices[rng.uniformInt(N)];
}

/** One small trace point (n 16-48) with drawn memory knobs. */
ExperimentSpec
servePoint(qmh::Random &rng)
{
    static const char *const workloads[] = {"draper", "ripple", "random"};
    static const unsigned transfers[] = {2, 5, 10, 20};
    static const double capacity_x[] = {0.5, 1.0, 1.5, 2.0};
    static const unsigned banks[] = {4, 8, 16};
    static const unsigned ports[] = {2, 4, 8};

    ExperimentSpec spec;
    spec.kind = qmh::api::ExperimentKind::Trace;
    spec.workload = pick(workloads, rng);
    spec.n = static_cast<int>(rng.uniformRange(16, 48));
    if (spec.workload == "random")
        spec.gates = static_cast<int>(rng.uniformRange(64, 256));
    spec.transfers = pick(transfers, rng);
    spec.capacity_x = pick(capacity_x, rng);
    spec.mem_banks = pick(banks, rng);
    spec.mem_ports = pick(ports, rng);
    spec.mem_buffer = static_cast<std::uint64_t>(rng.uniformRange(4, 12));
    spec.cycles_per_line =
        static_cast<std::uint64_t>(rng.uniformRange(0, 3));
    return spec;
}

struct ServeRequest
{
    std::string id;
    std::vector<std::string> keys;
    std::vector<bool> hot;
};

struct ServeInputs
{
    std::vector<std::string> hot_keys;
    std::vector<ServeRequest> requests; ///< timed
    std::vector<ServeRequest> warm_up;  ///< one per client
    std::unordered_map<std::string, ExperimentSpec> specs;
};

ServeInputs
makeInputs(std::uint64_t seed, std::size_t count)
{
    ServeInputs inputs;
    qmh::Random rng(seed);
    auto fresh = [&]() {
        for (;;) {
            auto spec = servePoint(rng);
            auto key = qmh::api::printSpec(spec);
            if (inputs.specs.emplace(key, std::move(spec)).second)
                return key;
        }
    };
    for (std::size_t i = 0; i < kHotSet; ++i)
        inputs.hot_keys.push_back(fresh());

    std::vector<std::size_t> hot_index(kHotSet);
    for (std::size_t i = 0; i < kHotSet; ++i)
        hot_index[i] = i;
    for (std::size_t r = 0; r < count + kClients; ++r) {
        // 48 distinct hot points, 16 fresh ones, in shuffled slots.
        std::vector<std::pair<std::string, bool>> slots;
        for (std::size_t i = 0; i < kHotPerRequest; ++i) {
            std::swap(hot_index[i],
                      hot_index[i + rng.uniformInt(kHotSet - i)]);
            slots.emplace_back(inputs.hot_keys[hot_index[i]], true);
        }
        for (std::size_t i = 0; i < kFreshPerRequest; ++i)
            slots.emplace_back(fresh(), false);
        for (std::size_t i = slots.size(); i > 1; --i)
            std::swap(slots[i - 1], slots[rng.uniformInt(i)]);

        ServeRequest request;
        request.id = (r < count ? "r" : "warm") + std::to_string(r);
        for (auto &[key, hot] : slots) {
            request.keys.push_back(std::move(key));
            request.hot.push_back(hot);
        }
        (r < count ? inputs.requests : inputs.warm_up)
            .push_back(std::move(request));
    }
    return inputs;
}

/** One request as the client saw it, rows filed by slot. */
struct Response
{
    bool done = false;   ///< the done record arrived
    bool error = false;  ///< an error record arrived
    double request_ms = 0.0, first_row_ms = 0.0, accepted_ms = 0.0;
    std::vector<std::string> records;
    /** The "cells" object of each slot's row; empty = never arrived. */
    std::vector<std::string_view> cells;
};

bool
startsWith(const std::string &text, std::string_view prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

Response
exchange(qmh::server::Client &client, const std::string &line,
         std::size_t slots)
{
    Response response;
    std::optional<Clock::time_point> accepted_at, first_row_at;
    const auto sent_at = Clock::now();
    auto records = client.request(line, [&](const std::string &record) {
        if (!accepted_at && startsWith(record, "{\"type\":\"accepted\""))
            accepted_at = Clock::now();
        else if (!first_row_at && startsWith(record, "{\"type\":\"row\""))
            first_row_at = Clock::now();
    });
    const auto done_at = Clock::now();
    response.request_ms = microsBetween(sent_at, done_at) / 1000.0;
    response.first_row_ms =
        microsBetween(sent_at, first_row_at.value_or(done_at)) / 1000.0;
    response.accepted_ms =
        microsBetween(sent_at, accepted_at.value_or(done_at)) / 1000.0;
    response.cells.assign(slots, {});
    if (!records.ok())
        return response;
    response.records = std::move(records).value();
    for (const auto &record : response.records) {
        if (startsWith(record, "{\"type\":\"done\""))
            response.done = true;
        else if (startsWith(record, "{\"type\":\"error\""))
            response.error = true;
        if (!startsWith(record, "{\"type\":\"row\""))
            continue;
        const auto index_at = record.find("\"index\":");
        const auto cells_at = record.find("\"cells\":");
        if (index_at == std::string::npos || cells_at == std::string::npos)
            continue;
        const auto index = std::strtoull(record.c_str() + index_at + 8,
                                         nullptr, 10);
        if (index < slots)
            response.cells[index] = std::string_view(record).substr(
                cells_at + 8, record.size() - cells_at - 9);
    }
    return response;
}

/** What one client thread saw over its share of the requests. */
struct ClientTally
{
    std::size_t failed = 0;
    std::size_t truncated = 0, retried_hot = 0, retried_fresh = 0;
    std::vector<std::string> problems;
};

/** Outcome of one timed request, filed by request index. */
struct RequestOutcome
{
    RequestTiming timing;
    double accepted_ms = 0.0;
    double done_s = 0.0;   ///< end of the request, into the timed phase
    std::size_t valid = 0; ///< points delivered as valid rows
    std::uint64_t digest = 0;
    /** Row cells of fresh slots (traced runs keep them for checks). */
    std::vector<std::string> fresh_cells;
};

/**
 * Send @p request and re-request whatever a truncated stream left out
 * (a re-request can be truncated the same way, so up to kRetryRounds
 * times), then check every slot's row and fold it into the request's
 * digest.
 */
void
serveOne(qmh::server::Client &client, const ServeRequest &request,
         bool keep_fresh, RequestOutcome &outcome, ClientTally &tally)
{
    std::vector<Response> responses;
    responses.reserve(kRetryRounds + 1);
    // The line is built here, not stored with the inputs, so the inputs
    // of a long run do not swell max_rss_mb.
    responses.push_back(exchange(
        client, requestLine(request.id, request.keys, true), kPoints));
    outcome.timing = {responses[0].request_ms, responses[0].first_row_ms};
    outcome.accepted_ms = responses[0].accepted_ms;
    auto cells = responses[0].cells;

    std::vector<std::size_t> asked(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i)
        asked[i] = i;
    for (int round = 0; round < kRetryRounds; ++round) {
        const auto &last = responses.back();
        std::vector<std::size_t> missing;
        for (std::size_t j = 0; j < asked.size(); ++j) {
            if (!last.cells[j].empty())
                cells[asked[j]] = last.cells[j];
            else
                missing.push_back(asked[j]);
        }
        if (missing.empty() || !last.done || last.error)
            break;
        ++tally.truncated;
        std::vector<std::string> keys;
        for (const auto slot : missing) {
            keys.push_back(request.keys[slot]);
            ++(request.hot[slot] ? tally.retried_hot : tally.retried_fresh);
        }
        responses.push_back(exchange(
            client,
            requestLine(request.id + "-retry" + std::to_string(round), keys,
                        true),
            keys.size()));
        asked = std::move(missing);
    }
    for (std::size_t j = 0; j < asked.size(); ++j)
        if (!responses.back().cells[j].empty())
            cells[asked[j]] = responses.back().cells[j];

    Digest digest;
    for (std::size_t i = 0; i < kPoints; ++i) {
        digest.add(cells[i]);
        digest.add(std::string_view("\n"));
        std::string problem;
        const auto spec_prefix =
            "{\"spec\":" + qmh::sweep::jsonQuote(request.keys[i]) + ",";
        if (cells[i].empty())
            problem = "point never arrived";
        else if (cells[i].compare(0, spec_prefix.size(), spec_prefix) != 0)
            problem = "row answers another spec";
        else if (const auto fields = readCellsJson(cells[i]); !fields)
            problem = "row lacks a trace column";
        else
            problem = checkTraceRow(*fields);
        if (problem.empty())
            ++outcome.valid;
        else {
            ++tally.failed;
            tally.problems.push_back(request.id + " slot " +
                                     std::to_string(i) + ": " + problem);
        }
        if (keep_fresh && !request.hot[i])
            outcome.fresh_cells.emplace_back(cells[i]);
    }
    outcome.digest = digest.value();
}

/** Pin this process to its current CPU; a note saying which. */
std::string
pinToOneCpu()
{
    const int cpu = sched_getcpu();
    cpu_set_t set;
    CPU_ZERO(&set);
    if (cpu >= 0)
        CPU_SET(cpu, &set);
    if (cpu < 0 || sched_setaffinity(0, sizeof set, &set) != 0)
        return "not pinned: the threads may run on any CPU";
    return "pinned to CPU " + std::to_string(cpu);
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(1);
}

/** A serving server with its connected clients and inputs. */
class ServeRig
{
  public:
    ServeRig(const Options &options, std::size_t count)
    {
        const auto start = Clock::now();
        inputs = makeInputs(options.seed, count);

        qmh::server::ServerConfig config;
        config.threads = kPoolThreads;
        // Room for every key in every shard, so nothing is evicted.
        config.cache.capacity_per_shard = inputs.specs.size();
        auto created = qmh::server::Server::create(config);
        if (!created.ok())
            die(created.error().describe());
        server = std::move(created).value();
        _loop = std::thread([this] { server->serve(); });
        for (std::size_t c = 0; c < kClients; ++c) {
            auto client =
                qmh::server::Client::connect("127.0.0.1", server->port());
            if (!client.ok())
                die(client.error().describe());
            clients.push_back(std::move(client).value());
        }

        // Prime the hot set; a truncated stream is asked again.
        std::vector<std::string> pending = inputs.hot_keys;
        for (int attempt = 0; attempt < 4 && !pending.empty(); ++attempt) {
            const auto response =
                exchange(clients[0], requestLine("prime", pending, true),
                         pending.size());
            std::vector<std::string> left;
            for (std::size_t i = 0; i < pending.size(); ++i)
                if (response.cells[i].empty())
                    left.push_back(pending[i]);
            pending = std::move(left);
        }
        if (server->cache().stats().resident != kHotSet)
            die("priming left the hot set incomplete");

        for (std::size_t c = 0; c < kClients; ++c) {
            RequestOutcome outcome;
            ClientTally tally;
            serveOne(clients[c], inputs.warm_up[c], false, outcome, tally);
            if (tally.failed != 0)
                die("the warm-up request failed");
        }
        seconds = microsBetween(start, Clock::now()) / 1e6;
    }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    ~ServeRig() { stop(); }

    /** Shut the server down and join its loop thread. */
    void stop()
    {
        if (!_loop.joinable())
            return;
        if (clients.empty() || !clients[0].shutdownServer().ok())
            server->stop();
        _loop.join();
    }

    ServeInputs inputs;
    std::unique_ptr<qmh::server::Server> server;
    std::vector<qmh::server::Client> clients;
    double seconds = 0.0;

  private:
    std::thread _loop;
};

/** The traced run's replays, on the run's own requests and rows. */
void
traceServe(Report &report, const ServeRig &rig,
           const std::vector<RequestOutcome> &outcomes,
           const std::vector<Chunk> &chunks)
{
    LayerSamples samples;
    std::vector<SessionRequest> fresh_requests;
    std::vector<const RequestOutcome *> fresh_outcomes;
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < rig.inputs.requests.size();
         k += kReplayEvery) {
        const auto &request = rig.inputs.requests[k];
        lines.push_back(requestLine(request.id, request.keys, true));
        SessionRequest fresh;
        for (std::size_t i = 0; i < kPoints; ++i) {
            if (request.hot[i])
                continue;
            fresh.specs.push_back(rig.inputs.specs.at(request.keys[i]));
            fresh.seeds.push_back(
                qmh::opt::specSeed(kBaseSeed, request.keys[i]));
        }
        fresh_requests.push_back(std::move(fresh));
        fresh_outcomes.push_back(&outcomes[k]);
    }

    // The session layer on the fresh points, as the server's pool ran
    // them: the same experiments, spec seeds and pool size.
    {
        qmh::api::Session session(
            qmh::sweep::SweepOptions{kPoolThreads, kBaseSeed});
        LayerSamples session_samples;
        const auto pass = tracedSessionPass(session, fresh_requests,
                                            kBaseSeed, kPoolThreads,
                                            session_samples);
        samples.run_us = std::move(session_samples.run_us);
        samples.wait_us = std::move(session_samples.wait_us);
        samples.idle_share = std::move(session_samples.idle_share);

        const CellReader reader(pass.columns);
        std::vector<ReplayPoint> points;
        std::vector<std::string> keys;
        std::vector<std::uint64_t> seeds;
        std::vector<Row> rows;
        for (std::size_t k = 0; k < fresh_requests.size(); ++k) {
            const auto &fresh = fresh_requests[k];
            const auto &served = fresh_outcomes[k]->fresh_cells;
            const auto &replayed = pass.rows[k];
            for (std::size_t i = 0; i < replayed.size(); ++i) {
                // The replayed row must be byte-identical to the row
                // the server sent for the same spec.
                const auto record =
                    qmh::api::recordRow("", 0, pass.columns, replayed[i]);
                const auto cells_at = record.find("\"cells\":") + 8;
                if (i >= served.size() ||
                    record.compare(cells_at, record.size() - cells_at - 1,
                                   served[i]) != 0)
                    report.fail("replayed row differs from the served "
                                "row of '" +
                                qmh::api::printSpec(fresh.specs[i]) + "'");
                points.push_back({fresh.specs[i], fresh.seeds[i],
                                  reader.read(replayed[i])});
                keys.push_back(qmh::api::printSpec(fresh.specs[i]));
                seeds.push_back(fresh.seeds[i]);
                rows.push_back(replayed[i]);
            }
        }
        for (const auto &problem :
             replayStages(points, kFreshPerRequest, kPoolThreads, samples))
            report.fail(problem);
        const auto problem = replayServiceAndStore(
            lines, pass.columns, keys, seeds, rows, samples);
        if (!problem.empty())
            report.fail(problem);
    }

    // The server validates every point of a request, hot ones too.
    for (std::size_t k = 0; k < rig.inputs.requests.size();
         k += kReplayEvery) {
        std::vector<ExperimentSpec> specs;
        for (const auto &key : rig.inputs.requests[k].keys)
            specs.push_back(rig.inputs.specs.at(key));
        const auto start = Clock::now();
        const auto validated = qmh::api::validateExperiments(specs);
        samples.validate_us.push_back(microsBetween(start, Clock::now()) /
                                      static_cast<double>(kPoints));
        if (!validated.ok())
            report.fail(validated.error().describe());
    }
    for (const auto &outcome : outcomes)
        samples.accepted_ms.push_back(outcome.accepted_ms);
    reportLayers(report, samples);
    // The server-side store's own count, not the replay's.
    report.set("store.resident",
               static_cast<double>(rig.server->cache().stats().resident),
               "count");

    // Per point of a request: its share of the request's decode, then
    // validate, lookup and encode for every point, and the session run
    // plus store insert for the fresh quarter. These run on the loop
    // thread and the pool at once, so the sum is not checked against
    // the untraced time.
    const double fresh_share =
        static_cast<double>(kFreshPerRequest) / kPoints;
    Ledger ledger;
    ledger.untraced_us = kPoolThreads * 1e6 / medianRate(chunks);
    ledger.traced_us = ledger.untraced_us;
    ledger.checked = false;
    ledger.stages = {
        {"service.decode_us / point", mean(samples.decode_us) / kPoints},
        {"api.validate_us", mean(samples.validate_us)},
        {"store.lookup_us", mean(samples.lookup_us)},
        {"service.encode_us", mean(samples.encode_us)},
        {"session.run_us x fresh share", fresh_share * mean(samples.run_us)},
        {"store.insert_us x fresh share",
         fresh_share * mean(samples.insert_us)}};
    reportLedger(report, ledger);
}

} // namespace

Report
runServe(const Options &options)
{
    const auto pinned = pinToOneCpu();
    const auto count = static_cast<std::size_t>(options.seconds *
                                                kRequestsPerSecond);
    auto rig = std::make_unique<ServeRig>(options, count);
    std::vector<double> setup_s{rig->seconds};

    const auto before = rig->server->cache().stats();
    std::vector<RequestOutcome> outcomes(count);
    std::vector<ClientTally> tallies(kClients);
    const auto start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                for (std::size_t k = c; k < count; k += kClients) {
                    serveOne(rig->clients[c], rig->inputs.requests[k],
                             options.trace && k % kReplayEvery == 0,
                             outcomes[k], tallies[c]);
                    outcomes[k].done_s =
                        microsBetween(start, Clock::now()) / 1e6;
                }
            });
        for (auto &thread : threads)
            thread.join();
    }
    // Chunks of kChunkRequests consecutive requests; a chunk ends when
    // its last request does (each client runs its requests in order).
    std::vector<Chunk> chunks((count + kChunkRequests - 1) / kChunkRequests);
    std::vector<RequestTiming> timings;
    std::vector<double> chunk_end(chunks.size(), 0.0);
    for (std::size_t k = 0; k < count; ++k) {
        const auto c = k / kChunkRequests;
        chunk_end[c] = std::max(chunk_end[c], outcomes[k].done_s);
        chunks[c].valid += outcomes[k].valid;
        timings.push_back(outcomes[k].timing);
        timings.back().chunk = c;
    }
    for (std::size_t c = 0; c < chunks.size(); ++c)
        chunks[c].seconds = chunk_end[c] - (c ? chunk_end[c - 1] : 0.0);
    const auto after = rig->server->cache().stats();
    rig->stop();
    const auto server_stats = rig->server->stats();

    Report report;
    report.note(pinned);
    ClientTally total;
    for (const auto &tally : tallies) {
        total.failed += tally.failed;
        total.truncated += tally.truncated;
        total.retried_hot += tally.retried_hot;
        total.retried_fresh += tally.retried_fresh;
        total.problems.insert(total.problems.end(), tally.problems.begin(),
                              tally.problems.end());
    }
    report.attempted = count * kPoints;
    report.failed = total.failed;
    for (std::size_t i = 0; i < total.problems.size() && i < 5; ++i)
        report.note("missing or bad point: " + total.problems[i]);

    // The hit and miss counts are fixed by construction: every hot
    // point hits, every fresh point misses once, and a re-requested
    // point hits when hot and misses again when fresh (its row was
    // never stored).
    const std::size_t hits = after.hits - before.hits;
    const std::size_t misses = after.misses - before.misses;
    const std::size_t want_hits = count * kHotPerRequest + total.retried_hot;
    const std::size_t want_misses =
        count * kFreshPerRequest + total.retried_fresh;
    report.note("cache hits " + std::to_string(hits) + " (by construction " +
                std::to_string(want_hits) + "), misses " +
                std::to_string(misses) + " (by construction " +
                std::to_string(want_misses) + "), truncated requests " +
                std::to_string(total.truncated) + ", re-requested points " +
                std::to_string(total.retried_hot + total.retried_fresh));
    if (hits != want_hits || misses != want_misses)
        report.fail("cache hits/misses differ from the counts fixed by "
                    "construction");
    if (after.evictions != 0)
        report.fail("the cache evicted entries");
    if (server_stats.simulated != after.misses)
        report.fail("server simulated " +
                    std::to_string(server_stats.simulated) +
                    " points for " + std::to_string(after.misses) +
                    " misses");

    Digest digest;
    for (const auto &outcome : outcomes)
        digest.add(outcome.digest);
    checkDigest(report, options, digest, total.failed == 0);

    if (!options.trace) {
        // The further set-ups run after the timed phase, so setup_s, their
        // median, spans both ends of the run.
        rig.reset();
        while (setup_s.size() < kSetups)
            setup_s.push_back(ServeRig(options, count).seconds);
        reportEndToEnd(report, timings, chunks, count * kPoints, setup_s);
        return report;
    }

    report.set("server.hits", static_cast<double>(hits), "count");
    report.set("server.misses", static_cast<double>(misses), "count");
    report.set("server.hit_ratio",
               static_cast<double>(hits) /
                   static_cast<double>(hits + misses),
               "ratio");
    report.set("server.simulated",
               static_cast<double>(server_stats.simulated), "count");
    report.set("server.truncated_requests",
               static_cast<double>(total.truncated), "count");
    report.set("server.retried_points",
               static_cast<double>(total.retried_hot + total.retried_fresh),
               "count");
    traceServe(report, *rig, outcomes, chunks);
    return report;
}

} // namespace perfbench
