/**
 * @file
 * End-to-end tests for the experiment server: byte-identity with the
 * stdio service, per-client fairness under a stalled reader, the
 * shared cache across a client population, capacity refusals, and
 * disconnect cancellation. serve() runs on a background thread; every
 * server binds port 0 and is reached through its resolved port.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/experiment.hh"
#include "api/service.hh"
#include "server/client.hh"
#include "server/connection.hh"
#include "server/server.hh"
#include "sweep/emit.hh"

namespace qmh {
namespace {

constexpr std::uint64_t kSeed = 42;

/** serve() on its own thread; always stopped and joined on exit. */
class Serving
{
  public:
    explicit Serving(server::Server &server)
        : _server(server), _thread([&server]() { server.serve(); })
    {
    }
    ~Serving() { finish(); }

    /** Stop and join; stats() is only safe once this returned (the
     *  loop thread owns the connection list while serve() runs). */
    void finish()
    {
        _server.stop();
        if (_thread.joinable())
            _thread.join();
    }

  private:
    server::Server &_server;
    std::thread _thread;
};

/** The reference bytes: the same lines through stdio qmh_service. */
std::string
stdioReference(const std::string &lines, unsigned threads = 2)
{
    api::Session session({.threads = threads, .base_seed = kSeed});
    std::istringstream in(lines);
    std::ostringstream out;
    server::runService(session, in, out);
    return out.str();
}

std::string
requestLine(const std::string &id,
            const std::vector<std::string> &specs,
            const std::string &extra = "")
{
    std::string line = "{\"id\":" + sweep::jsonQuote(id);
    if (!extra.empty())
        line += "," + extra;
    line += ",\"specs\":[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i)
            line += ",";
        line += sweep::jsonQuote(specs[i]);
    }
    return line + "]}";
}

/** Records joined back into the byte stream stdio would produce. */
std::string
joined(const std::vector<std::string> &records)
{
    std::string bytes;
    for (const auto &record : records)
        bytes += record + "\n";
    return bytes;
}

server::ServerConfig
testConfig()
{
    server::ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.base_seed = kSeed;
    return config;
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

TEST(Server, RefusesAnUnparseableHostWithATypedError)
{
    auto config = testConfig();
    config.host = "not-a-host";
    auto created = server::Server::create(config);
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.error().code, api::ErrorCode::Unavailable);
    EXPECT_EQ(api::errorCodeName(api::ErrorCode::Unavailable),
              "unavailable");
}

TEST(Server, StopFromAnotherThreadEndsAnIdleServe)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);
    // No client ever connects, so serve() sleeps in poll() (the pause
    // gives it time to get there); if stop() could not wake it, this
    // join would hang the test.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    serving.finish();
    EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(Server, ShutdownRequestAnswersDoneAndStopsServe)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    auto client = server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.error().describe();
    const auto records = client.value().shutdownServer("bye");
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), 1u);
    EXPECT_EQ(records.value()[0],
              "{\"type\":\"done\",\"id\":\"bye\",\"rows\":0,"
              "\"total\":0,\"cancelled\":false}");
    // ~Serving would end the loop anyway; the point is that the
    // request alone already did, so this join cannot hang.
}

TEST(Server, EightConcurrentClientsMatchTheStdioBytes)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    // Overlapping grids: client k sweeps caches n=2^k..2^(k+2) in
    // spec mode (shared-cache traffic) plus one index-mode request —
    // both must be byte-identical to a lone stdio run.
    std::vector<std::thread> clients;
    for (std::size_t k = 0; k < 8; ++k) {
        clients.emplace_back([k, &server]() {
            std::vector<std::string> specs;
            for (std::size_t step = 0; step < 3; ++step)
                specs.push_back(
                    "experiment=cache n=" +
                    std::to_string(1u << (k + step + 1)));
            const auto spec_line = requestLine(
                "spec-" + std::to_string(k), specs,
                "\"seed_mode\":\"spec\"");
            const auto index_line = requestLine(
                "index-" + std::to_string(k),
                {"experiment=bandwidth blocks=" +
                     std::to_string(10 * (k + 1)),
                 "experiment=bandwidth blocks=7"});

            auto client =
                server::Client::connect("127.0.0.1", server.port());
            ASSERT_TRUE(client.ok()) << client.error().describe();
            std::string bytes;
            for (const auto *line : {&spec_line, &index_line}) {
                const auto records = client.value().request(*line);
                ASSERT_TRUE(records.ok())
                    << records.error().describe();
                bytes += joined(records.value());
            }
            EXPECT_EQ(bytes,
                      stdioReference(spec_line + "\n" + index_line +
                                     "\n"));
        });
    }
    for (auto &client : clients)
        client.join();
}

TEST(Server, StalledReaderDoesNotBlockOtherClients)
{
    auto config = testConfig();
    config.connection.max_buffered = 2048; // tiny high-water mark
    auto created = server::Server::create(config);
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    // The stalled reader: a raw socket with a tiny receive buffer
    // that requests ~5 MB of rows and then refuses to read — enough
    // to fill its kernel buffers and pin the connection against the
    // server's high-water mark.
    std::string specs;
    for (std::size_t i = 0; i < 20000; ++i) {
        if (i)
            specs += ",";
        specs += "\"experiment=bandwidth blocks=" +
                 std::to_string(i + 1) + "\"";
    }
    const std::string big_line =
        "{\"id\":\"big\",\"specs\":[" + specs + "]}";

    const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(stalled, 0);
    const int rcvbuf = 4096;
    ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                 sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(stalled,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof addr),
              0);
    const std::string wire = big_line + "\n";
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const auto put = ::send(stalled, wire.data() + sent,
                                wire.size() - sent, 0);
        ASSERT_GT(put, 0);
        sent += static_cast<std::size_t>(put);
    }

    // While the reader stalls, three other clients run complete
    // requests. If the stalled connection could block the loop or
    // the pool, these would never finish and the test would time
    // out — completion IS the fairness proof.
    for (int k = 0; k < 3; ++k) {
        const auto line = requestLine(
            "fair-" + std::to_string(k),
            {"experiment=cache n=64", "experiment=bandwidth"});
        auto client =
            server::Client::connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.error().describe();
        const auto records = client.value().request(line);
        ASSERT_TRUE(records.ok()) << records.error().describe();
        EXPECT_EQ(joined(records.value()),
                  stdioReference(line + "\n"));
    }

    // The stalled reader lost nothing: drain it now and compare
    // every byte against the stdio run of the same request.
    const std::string expected = stdioReference(big_line + "\n");
    std::string received;
    received.reserve(expected.size());
    char buffer[64 * 1024];
    while (received.size() < expected.size()) {
        const auto got = ::recv(stalled, buffer, sizeof buffer, 0);
        ASSERT_GT(got, 0) << "server closed the stalled reader early";
        received.append(buffer, static_cast<std::size_t>(got));
    }
    EXPECT_EQ(received, expected);
    ::close(stalled);
}

TEST(Server, WarmCacheServesTheRepeatPopulationWithoutSimulating)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();

    // 8 clients x 3 specs stepping by 1: 10 distinct specs overall.
    std::vector<std::string> lines;
    for (std::size_t k = 0; k < 8; ++k) {
        std::vector<std::string> specs;
        for (std::size_t step = 0; step < 3; ++step)
            specs.push_back("experiment=cache n=" +
                            std::to_string(8 * (k + step + 1)));
        lines.push_back(requestLine("warm-" + std::to_string(k),
                                    specs,
                                    "\"seed_mode\":\"spec\""));
    }
    constexpr std::size_t kDistinct = 10;

    {
        Serving serving(server);
        std::vector<std::string> first_wave;
        for (int wave = 0; wave < 2; ++wave) {
            for (std::size_t k = 0; k < lines.size(); ++k) {
                auto client = server::Client::connect(
                    "127.0.0.1", server.port());
                ASSERT_TRUE(client.ok())
                    << client.error().describe();
                const auto records =
                    client.value().request(lines[k]);
                ASSERT_TRUE(records.ok())
                    << records.error().describe();
                if (wave == 0)
                    first_wave.push_back(joined(records.value()));
                else
                    // Replayed bytes are the simulated bytes.
                    EXPECT_EQ(joined(records.value()),
                              first_wave[k]);
            }
        }
    }

    const auto stats = server.stats();
    EXPECT_EQ(stats.simulated, kDistinct);
    EXPECT_EQ(stats.cache.inserts, kDistinct);
    EXPECT_GE(stats.cache.hits, 8u * 3u); // 2nd wave never simulates
    EXPECT_EQ(stats.rows, 2u * 8u * 3u);
}

TEST(Server, LimitMetByCachedRowsSimulatesNothing)
{
    // The accepted record and the leading cache hits go out before the
    // misses are submitted, so a limit those hits already meet ends
    // the request with its misses never run — and the bytes are still
    // the stdio bytes.
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();

    const std::vector<std::string> warm = {"experiment=cache n=8",
                                           "experiment=cache n=16"};
    auto wider = warm;
    wider.push_back("experiment=cache n=24");
    wider.push_back("experiment=cache n=32");
    const std::string lines[] = {
        requestLine("warm", warm, "\"seed_mode\":\"spec\""),
        requestLine("cut", wider,
                    "\"seed_mode\":\"spec\",\"limit\":2")};

    std::string received;
    {
        Serving serving(server);
        auto client =
            server::Client::connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.error().describe();
        for (const auto &line : lines) {
            const auto records = client.value().request(line);
            ASSERT_TRUE(records.ok()) << records.error().describe();
            received += joined(records.value());
        }
    }

    EXPECT_EQ(received, stdioReference(lines[0] + "\n" + lines[1] +
                                       "\n"));
    const auto stats = server.stats();
    EXPECT_EQ(stats.simulated, warm.size());
    EXPECT_EQ(stats.rows, warm.size() + 2u);
}

TEST(Server, LimitThroughTheMissesSimulatesOnlyThePrefix)
{
    // A limit that cuts through the misses: the points past it are
    // never submitted, so exactly the misses before the cut run,
    // whatever the timing, in either seed mode.
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();

    std::vector<std::string> specs;
    for (std::size_t k = 1; k <= 6; ++k)
        specs.push_back("experiment=cache n=" + std::to_string(16 * k));
    const std::string lines[] = {
        requestLine("spec-cut", specs,
                    "\"seed_mode\":\"spec\",\"limit\":3"),
        requestLine("index-cut", specs, "\"limit\":2")};

    std::string received;
    {
        Serving serving(server);
        auto client =
            server::Client::connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.error().describe();
        for (const auto &line : lines) {
            const auto records = client.value().request(line);
            ASSERT_TRUE(records.ok()) << records.error().describe();
            received += joined(records.value());
        }
    }

    EXPECT_EQ(received, stdioReference(lines[0] + "\n" + lines[1] +
                                       "\n"));
    const auto stats = server.stats();
    EXPECT_EQ(stats.simulated, 3u + 2u);
    EXPECT_EQ(stats.rows, 3u + 2u);
    EXPECT_EQ(stats.cache.inserts, 3u);
}

TEST(Server, StaleStoreRowsAreSimulatedOnceAndRepaired)
{
    // A backed log written before a schema change holds rows of the
    // wrong width under the right keys and seeds. The server must not
    // replay them: it simulates each point once, answers with the
    // stdio bytes, and repairs the log, so a second server over the
    // same file replays the fresh rows.
    const auto path = ::testing::TempDir() + "server_stale_rows.jsonl";
    std::remove(path.c_str());
    std::vector<std::string> specs;
    for (const char *text : {"experiment=bandwidth blocks=10",
                             "experiment=bandwidth blocks=20"})
        specs.push_back(api::printSpec(api::parseSpec(text).spec));
    {
        opt::ResultCache log(kSeed);
        ASSERT_EQ(log.open(path), "");
        const auto width =
            api::makeExperiment(api::parseSpec(specs[0]).spec)
                ->columns()
                .size();
        const sweep::Cell stale(std::string("stale"));
        log.insert(specs[0], opt::specSeed(kSeed, specs[0]),
                   std::vector<sweep::Cell>(width + 3, stale));
        log.insert(specs[1], opt::specSeed(kSeed, specs[1]),
                   std::vector<sweep::Cell>(5, stale));
    }

    const auto line =
        requestLine("stale", specs, "\"seed_mode\":\"spec\"");
    const auto expected = stdioReference(line + "\n");
    for (std::size_t generation = 0; generation < 2; ++generation) {
        auto config = testConfig();
        config.cache_path = path;
        auto created = server::Server::create(config);
        ASSERT_TRUE(created.ok()) << created.error().describe();
        auto &server = *created.value();
        std::string received;
        {
            Serving serving(server);
            auto client =
                server::Client::connect("127.0.0.1", server.port());
            ASSERT_TRUE(client.ok()) << client.error().describe();
            const auto records = client.value().request(line);
            ASSERT_TRUE(records.ok()) << records.error().describe();
            received = joined(records.value());
        }
        EXPECT_EQ(received, expected) << "generation " << generation;
        EXPECT_EQ(server.stats().simulated,
                  generation == 0 ? specs.size() : 0u)
            << "generation " << generation;
    }
}

TEST(Server, ShortRequestsNeverEndTheirStreamEarly)
{
    // Many short requests of unique specs on two clients: a worker
    // retiring a job's last rows between the connection's harvest and
    // its "job finished" check must not end the stream short of its
    // total (the done record would read "rows":15,"total":16).
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    constexpr std::size_t kRequests = 150;
    constexpr std::size_t kSpecs = 16;
    const std::string complete = "\"rows\":" + std::to_string(kSpecs) +
                                 ",\"total\":" + std::to_string(kSpecs) +
                                 ",";
    std::vector<std::thread> clients;
    for (std::size_t k = 0; k < 2; ++k) {
        clients.emplace_back([k, &server, &complete]() {
            auto client =
                server::Client::connect("127.0.0.1", server.port());
            ASSERT_TRUE(client.ok()) << client.error().describe();
            std::size_t short_streams = 0;
            for (std::size_t r = 0; r < kRequests; ++r) {
                std::vector<std::string> specs;
                for (std::size_t i = 0; i < kSpecs; ++i)
                    specs.push_back(
                        "experiment=bandwidth blocks=" +
                        std::to_string(1 + i + kSpecs *
                                                   (r + kRequests * k)));
                const auto records = client.value().request(
                    requestLine("short-" + std::to_string(r), specs));
                ASSERT_TRUE(records.ok()) << records.error().describe();
                const auto &done = records.value().back();
                ASSERT_NE(done.find("\"type\":\"done\""),
                          std::string::npos)
                    << done;
                if (done.find(complete) == std::string::npos) {
                    ++short_streams;
                    ADD_FAILURE() << "client " << k << ": " << done;
                }
            }
            EXPECT_EQ(short_streams, 0u);
        });
    }
    for (auto &client : clients)
        client.join();
}

TEST(Server, OverflowingMaxClientsGetsATypedRefusal)
{
    auto config = testConfig();
    config.max_clients = 1;
    auto created = server::Server::create(config);
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    auto first =
        server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(first.ok()) << first.error().describe();
    // A served request proves the slot is actually occupied.
    const auto held = first.value().request(
        requestLine("hold", {"experiment=cache n=32"}));
    ASSERT_TRUE(held.ok());

    auto second =
        server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(second.ok()) << second.error().describe();
    const auto refused = second.value().request(
        requestLine("late", {"experiment=cache n=32"}));
    ASSERT_TRUE(refused.ok()) << refused.error().describe();
    ASSERT_EQ(refused.value().size(), 1u);
    EXPECT_NE(refused.value()[0].find("\"code\":\"unavailable\""),
              std::string::npos)
        << refused.value()[0];
    EXPECT_NE(refused.value()[0].find("server at capacity"),
              std::string::npos);

    ASSERT_TRUE(first.value().shutdownServer().ok());
    serving.finish();
    const auto stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.rejected, 1u);
}

TEST(Server, OversizedRequestLineIsRefusedInBand)
{
    auto config = testConfig();
    config.connection.max_line = 128;
    auto created = server::Server::create(config);
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    auto client = server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.error().describe();
    const std::string oversized =
        "{\"id\":\"fat\",\"specs\":[\"experiment=cache n=" +
        std::string(200, '9') + "\"]}";
    const auto refused = client.value().request(oversized);
    ASSERT_TRUE(refused.ok()) << refused.error().describe();
    ASSERT_EQ(refused.value().size(), 1u);
    EXPECT_NE(refused.value()[0].find(
                  "request line exceeds 128 bytes"),
              std::string::npos)
        << refused.value()[0];
    EXPECT_NE(refused.value()[0].find("\"code\":\"bad_request\""),
              std::string::npos);

    // The connection survives its client's mistake.
    const auto line = requestLine("ok", {"experiment=cache n=16"});
    const auto records = client.value().request(line);
    ASSERT_TRUE(records.ok()) << records.error().describe();
    EXPECT_EQ(joined(records.value()), stdioReference(line + "\n"));
}

TEST(Server, DisconnectCancelsTheJobAndFreesTheClient)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    Serving serving(server);

    // A client submits a large job and vanishes without reading.
    {
        auto doomed = server::connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(doomed.ok()) << doomed.error().describe();
        std::string specs;
        for (std::size_t i = 0; i < 5000; ++i) {
            if (i)
                specs += ",";
            specs += "\"experiment=bandwidth blocks=" +
                     std::to_string(i + 1) + "\"";
        }
        const std::string wire =
            "{\"id\":\"doomed\",\"specs\":[" + specs + "]}\n";
        std::size_t sent = 0;
        while (sent < wire.size()) {
            const auto put = server::sendSome(
                doomed.value().get(), wire.data() + sent,
                wire.size() - sent);
            ASSERT_EQ(put.status, server::IoStatus::Ready);
            sent += put.bytes;
        }
    } // Fd closes here: the peer is gone.

    // The pool and the loop must shrug it off: a fresh client gets
    // exact bytes, and shutdown still drains cleanly.
    const auto line =
        requestLine("alive", {"experiment=cache n=64"});
    auto client = server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.error().describe();
    const auto records = client.value().request(line);
    ASSERT_TRUE(records.ok()) << records.error().describe();
    EXPECT_EQ(joined(records.value()), stdioReference(line + "\n"));
    ASSERT_TRUE(client.value().shutdownServer().ok());
}

/** CPU time (user + system) this process has used, in microseconds. */
long long
cpuMicros()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto micros = [](const timeval &t) {
        return t.tv_sec * 1'000'000LL + t.tv_usec;
    };
    return micros(usage.ru_utime) + micros(usage.ru_stime);
}

TEST(Server, OutOfDescriptorsDoesNotSpin)
{
    auto created = server::Server::create(testConfig());
    ASSERT_TRUE(created.ok()) << created.error().describe();
    auto &server = *created.value();
    const auto line = requestLine("waited", {"experiment=cache n=64"});
    const auto reference = stdioReference(line + "\n");
    Serving serving(server);

    // Lower this process's soft descriptor limit (restored on every
    // exit) and fill the table, keeping room for two served clients
    // (their sockets and the server's ends) and one more socket.
    rlimit original{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
    struct Restore
    {
        rlimit limit;
        ~Restore() { ::setrlimit(RLIMIT_NOFILE, &limit); }
    } restore{original};
    std::vector<server::Fd> filler;
    filler.emplace_back(::open("/dev/null", O_RDONLY));
    ASSERT_TRUE(filler.back().valid());
    rlimit lowered = original;
    lowered.rlim_cur = static_cast<rlim_t>(filler.back().get()) + 32;
    ASSERT_LE(lowered.rlim_cur, original.rlim_max);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    for (;;) {
        server::Fd fd(::open("/dev/null", O_RDONLY));
        if (!fd.valid())
            break;
        filler.push_back(std::move(fd));
    }
    ASSERT_EQ(errno, EMFILE);
    ASSERT_GE(filler.size(), 5u);
    filler.resize(filler.size() - 5);

    std::vector<server::Client> served;
    for (const char *id : {"a", "b"}) {
        auto client = server::Client::connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.error().describe();
        // A served request proves the server holds its end.
        ASSERT_TRUE(client.value()
                        .request(requestLine(id, {"experiment=cache n=32"}))
                        .ok());
        served.push_back(std::move(client).value());
    }

    // This client takes the last descriptor, so the server cannot
    // accept it; the listener stays readable all the while.
    auto waiting = server::Client::connect("127.0.0.1", server.port());
    ASSERT_TRUE(waiting.ok()) << waiting.error().describe();
    EXPECT_FALSE(server::Fd(::open("/dev/null", O_RDONLY)).valid());
    const auto before = cpuMicros();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LT(cpuMicros() - before, 100'000) << "serve() spun";

    // A client that leaves frees its connection's descriptor; the
    // waiting client is then accepted and served.
    served.erase(served.begin());
    const auto records = waiting.value().request(line);
    ASSERT_TRUE(records.ok()) << records.error().describe();
    EXPECT_EQ(joined(records.value()), reference);
}

} // namespace
} // namespace qmh
