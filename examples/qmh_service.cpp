/**
 * @file
 * Scenario: serve spec sweeps as a streaming JSONL backend.
 *
 * Reads one JSON request per stdin line and answers with JSONL
 * records on stdout — rows stream out in index order while the sweep
 * is still running, caller mistakes come back as structured error
 * records, and a "limit" field cancels the job cooperatively after
 * the requested number of rows. Pipe requests in, parse lines out:
 *
 *   $ echo '{"id":"r1","specs":["experiment=cache n=64"]}' \
 *       | qmh_service
 *   {"type":"accepted","id":"r1","total":1,"columns":[...]}
 *   {"type":"row","id":"r1","index":0,"cells":{...}}
 *   {"type":"done","id":"r1","rows":1,"total":1,"cancelled":false}
 *
 * The protocol lives in api/service.hh and its serve loop in
 * server/connection.hh; this binary only owns the process concerns
 * (flags, stdio, the exit summary).
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "cli_util.hh"
#include "server/client.hh"
#include "server/connection.hh"

namespace {

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options] < requests.jsonl\n"
        "  --threads N          worker threads (default: all cores)\n"
        "  --seed S     default base seed (requests may override)\n"
        "  --connect HOST:PORT  forward requests to a qmh_serve\n"
        "                       instance instead of sweeping locally\n"
        "                       (responses are byte-identical)\n"
        "  --help       this message\n"
        "request:  {\"op\":\"sweep\",\"id\":\"r1\",\"specs\":[...],"
        "\"seed\":7,\"limit\":10}\n"
        "responses: accepted / row (streamed) / error / done\n",
        prog);
}

/**
 * The --connect mode: the same stdin-to-stdout contract, with a
 * remote qmh_serve doing the sweeping. Records stream to stdout as
 * they arrive, one request at a time, in lockstep like the local
 * loop.
 */
int
runRemote(const qmh::cli::HostPort &endpoint)
{
    using namespace qmh;
    auto connected =
        server::Client::connect(endpoint.host, endpoint.port);
    if (!connected.ok()) {
        std::fprintf(stderr, "qmh_service: %s\n",
                     connected.error().describe().c_str());
        return 1;
    }
    auto client = std::move(connected).value();

    std::size_t requests = 0, rows = 0, errors = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        ++requests;
        const auto served = client.request(
            line, [&](const std::string &record) {
                std::cout << record << std::endl;
                if (record.rfind("{\"type\":\"row\"", 0) == 0)
                    ++rows;
                else if (record.rfind("{\"type\":\"error\"", 0) == 0)
                    ++errors;
            });
        if (!served.ok()) {
            std::fprintf(stderr, "qmh_service: %s\n",
                         served.error().describe().c_str());
            return 1;
        }
    }
    std::fprintf(stderr,
                 "qmh_service: served %zu request(s), %zu row(s), "
                 "%zu error record(s)\n",
                 requests, rows, errors);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qmh;

    unsigned threads = 0;
    std::uint64_t seed = sweep::SweepOptions{}.base_seed;
    std::optional<cli::HostPort> connect;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) {
            return cli::flagValue(argc, argv, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (arg == "--threads") {
            const auto parsed = cli::threadsArg(next_value("--threads"));
            if (!parsed) {
                std::fprintf(stderr, "--threads: bad value\n");
                return 1;
            }
            threads = *parsed;
        } else if (arg == "--seed") {
            const auto parsed = cli::seedArg(next_value("--seed"));
            if (!parsed) {
                std::fprintf(stderr, "--seed: bad value\n");
                return 1;
            }
            seed = *parsed;
        } else if (arg == "--connect") {
            const auto parsed =
                cli::hostPortArg(next_value("--connect"));
            if (!parsed) {
                std::fprintf(stderr, "--connect: bad HOST:PORT\n");
                return 1;
            }
            connect = *parsed;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            printUsage(argv[0]);
            return 1;
        }
    }

    if (connect)
        return runRemote(*connect);

    api::Session session({.threads = threads, .base_seed = seed});
    const auto stats = server::runService(session, std::cin, std::cout);
    std::fprintf(stderr,
                 "qmh_service: served %zu request(s), %zu row(s), "
                 "%zu error record(s)\n",
                 stats.requests, stats.rows, stats.errors);
    return 0;
}
