/**
 * @file
 * Scenario: host the JSONL sweep protocol for many concurrent
 * clients over TCP, with a shared result cache.
 *
 * Every connected client speaks exactly the qmh_service protocol
 * (api/service.hh) and receives bytes identical to a stdio run of
 * the same request lines; requests with "seed_mode":"spec" share the
 * server-wide result cache, so a spec any client already swept is
 * replayed instead of re-simulated. Serving ends when a client sends
 * {"op":"shutdown"} (or on SIGTERM via the surrounding shell).
 *
 *   terminal 1 $ qmh_serve --listen 7777 --threads 8
 *   terminal 2 $ echo '{"id":"r1","seed_mode":"spec",
 *                "specs":["experiment=cache n=64"]}' \
 *                  | qmh_service --connect 127.0.0.1:7777
 *
 * The subsystem lives in src/server/; this binary owns only flags,
 * the port file (so scripts can use an ephemeral --listen 0) and the
 * exit summary.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "cli_util.hh"
#include "server/server.hh"

namespace {

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --listen [HOST:]PORT  bind address (default 127.0.0.1:0;"
        " port 0 = ephemeral)\n"
        "  --threads N      worker threads (default: all cores)\n"
        "  --seed S         base seed (spec-mode cache identity)\n"
        "  --cache PATH     persistent shared cache (JSONL; shared\n"
        "                   format with optimizer --cache)\n"
        "  --max-clients N  concurrent connection cap (default 64)\n"
        "  --port-file P    write the bound port to file P\n"
        "  --help           this message\n"
        "clients: qmh_service --connect HOST:PORT (same protocol,\n"
        "         byte-identical responses); {\"op\":\"shutdown\"}\n"
        "         stops the server\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qmh;

    server::ServerConfig config;
    std::string port_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) {
            return cli::flagValue(argc, argv, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (arg == "--listen") {
            const auto parsed =
                cli::hostPortArg(next_value("--listen"));
            if (!parsed) {
                std::fprintf(stderr, "--listen: bad [HOST:]PORT\n");
                return 1;
            }
            config.host = parsed->host;
            config.port = parsed->port;
        } else if (arg == "--threads") {
            const auto parsed =
                cli::threadsArg(next_value("--threads"));
            if (!parsed) {
                std::fprintf(stderr, "--threads: bad value\n");
                return 1;
            }
            config.threads = *parsed;
        } else if (arg == "--seed") {
            const auto parsed = cli::seedArg(next_value("--seed"));
            if (!parsed) {
                std::fprintf(stderr, "--seed: bad value\n");
                return 1;
            }
            config.base_seed = *parsed;
        } else if (arg == "--cache") {
            config.cache_path = next_value("--cache");
        } else if (arg == "--max-clients") {
            const auto parsed =
                cli::intArg(next_value("--max-clients"), 1, 100000);
            if (!parsed) {
                std::fprintf(stderr, "--max-clients: bad value\n");
                return 1;
            }
            config.max_clients = static_cast<std::size_t>(*parsed);
        } else if (arg == "--port-file") {
            port_file = next_value("--port-file");
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            printUsage(argv[0]);
            return 1;
        }
    }

    auto created = server::Server::create(config);
    if (!created.ok()) {
        std::fprintf(stderr, "qmh_serve: %s\n",
                     created.error().describe().c_str());
        return 1;
    }
    auto &server = *created.value();

    std::fprintf(stderr, "qmh_serve: listening on %s:%u\n",
                 config.host.c_str(), server.port());
    if (!port_file.empty()) {
        std::ofstream out(port_file, std::ios::trunc);
        out << server.port() << "\n";
        if (!out) {
            std::fprintf(stderr,
                         "qmh_serve: cannot write port file %s\n",
                         port_file.c_str());
            return 1;
        }
    }

    server.serve();

    const auto stats = server.stats();
    std::fprintf(stderr,
                 "qmh_serve: served %zu request(s), %zu row(s), "
                 "%zu error record(s) over %zu client(s)"
                 " (%zu rejected)\n",
                 stats.requests, stats.rows, stats.errors,
                 stats.accepted, stats.rejected);
    std::fprintf(stderr,
                 "qmh_serve: cache %zu hit(s), %zu miss(es), "
                 "%zu insert(s), %zu eviction(s), %zu row byte(s); "
                 "simulated %zu point(s)\n",
                 stats.cache.hits, stats.cache.misses,
                 stats.cache.inserts, stats.cache.evictions,
                 stats.cache.row_bytes, stats.simulated);
    return 0;
}
