/**
 * @file
 * Unit tests for opt::ResultCache, the one result store: the JSONL
 * log and its open()-time checks, the unbacked LRU bound, the backed
 * store that never evicts, and thread-safety under concurrent
 * clients (the TSan job runs this suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/grid.hh"
#include "opt/cached_sweep.hh"
#include "opt/result_cache.hh"
#include "server/server.hh"

namespace qmh {
namespace opt {
namespace {

constexpr std::uint64_t kBase = 7;

std::string
tempPath(const char *name)
{
    const auto path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<sweep::Cell>
rowFor(const std::string &key)
{
    return {sweep::Cell(key), sweep::Cell(1.5),
            sweep::Cell(std::int64_t(key.size()))};
}

std::string
cellBytes(const std::vector<sweep::Cell> &row)
{
    std::string joined;
    for (const auto &cell : row)
        joined += cell.toJson() + ",";
    return joined;
}

bool
put(ResultCache &cache, const std::string &key)
{
    return cache.insert(key, specSeed(cache.baseSeed(), key),
                        rowFor(key));
}

// ---------------------------------------------------------------------------
// The store and its JSONL log.
// ---------------------------------------------------------------------------

TEST(ResultCache, InMemoryInsertAndLookup)
{
    ResultCache cache(kBase);
    EXPECT_FALSE(cache.backed());
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_TRUE(cache.insert("k", 7, {sweep::Cell(1.5)}));
    EXPECT_FALSE(cache.insert("k", 7, {sweep::Cell(9.9)}));
    const auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seed, 7u);
    EXPECT_EQ(hit->row.at(0).toString(), "1.5");
    EXPECT_EQ(cache.stats().resident, 1u);
}

TEST(ResultCache, PersistsAndReloadsJsonl)
{
    const auto path = tempPath("opt_cache_roundtrip.jsonl");
    const std::string key = "experiment=cache n=64";
    const std::string nasty = "experiment=cache workload=x\"y,z";
    {
        ResultCache cache(42);
        ASSERT_EQ(cache.open(path), "");
        cache.insert(key, specSeed(42, key),
                     {sweep::Cell("Steane [[7,1,3]]"), sweep::Cell(0.1),
                      sweep::Cell(std::int64_t(-3)),
                      sweep::Cell(std::uint64_t(11))});
        cache.insert(nasty, specSeed(42, nasty),
                     {sweep::Cell("line\nbreak\tand \"quotes\"")});
    }
    // Every line of the backing file must be standalone JSON.
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, 3u);  // header + two entries

    ResultCache warm(42);
    ASSERT_EQ(warm.open(path), "");
    EXPECT_EQ(warm.stats().resident, 2u);
    const auto hit = warm.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seed, specSeed(42, key));
    ASSERT_EQ(hit->row.size(), 4u);
    EXPECT_EQ(hit->row[0].toString(), "Steane [[7,1,3]]");
    EXPECT_EQ(hit->row[1].typeTag(), 'd');
    EXPECT_EQ(hit->row[1].toString(), "0.1");
    EXPECT_EQ(hit->row[2].typeTag(), 'i');
    EXPECT_EQ(hit->row[3].typeTag(), 'u');
    const auto other = warm.lookup(nasty);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->row[0].toString(),
              "line\nbreak\tand \"quotes\"");
}

TEST(ResultCache, RefusesForeignAndMismatchedFiles)
{
    const auto path = tempPath("opt_cache_bad.jsonl");
    {
        ResultCache cache(1);
        ASSERT_EQ(cache.open(path), "");
        cache.insert("k", specSeed(1, "k"), {sweep::Cell(1.0)});
    }
    ResultCache wrong_seed(2);
    EXPECT_NE(wrong_seed.open(path), "");

    const auto foreign = tempPath("opt_cache_foreign.jsonl");
    std::ofstream(foreign) << "{\"not\":\"a cache\"}\n";
    ResultCache not_ours(1);
    EXPECT_NE(not_ours.open(foreign), "");

    const auto corrupt = tempPath("opt_cache_corrupt.jsonl");
    {
        std::ifstream src(path);
        std::ofstream dst(corrupt);
        std::string line;
        std::getline(src, line);
        dst << line << "\n" << "{\"spec\":oops}\n";
    }
    ResultCache truncated(1);
    EXPECT_NE(truncated.open(corrupt), "");

    // A cache opened once cannot be re-pointed.
    ResultCache once(1);
    ASSERT_EQ(once.open(path), "");
    EXPECT_NE(once.open(path), "");

    // A directory must be refused up front, not treated as an empty
    // cache that silently never persists anything.
    ResultCache dir(1);
    EXPECT_NE(dir.open(::testing::TempDir()), "");
}

TEST(ResultCache, StaleEntryIsRepairedNotShadowedForever)
{
    // An entry written before a schema change (wrong row width) must
    // be re-simulated once and then *replaced* — otherwise it forces
    // a re-simulation on every future run while the file pretends to
    // be warm.
    const auto path = tempPath("opt_cache_stale.jsonl");
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=bandwidth").spec;
    grid.axis("blocks", {"10", "20"});
    const auto specs = grid.expand();
    sweep::SweepRunner runner({.threads = 2});
    const auto seed = runner.options().base_seed;
    const auto key = api::printSpec(specs.front());
    {
        ResultCache cache(seed);
        ASSERT_EQ(cache.open(path), "");
        cache.insert(key, specSeed(seed, key),
                     {sweep::Cell("stale")});  // wrong width
        const auto outcome = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(outcome.simulated, specs.size());  // stale = miss
    }
    {
        ResultCache cache(seed);
        ASSERT_EQ(cache.open(path), "");
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_GT(hit->row.size(), 1u);  // the repaired row won
        const auto outcome = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(outcome.simulated, 0u);
    }
}

TEST(ResultCache, SortedKeysAreAnOrderedSnapshot)
{
    ResultCache cache(kBase);
    cache.insert("m", 1, {sweep::Cell(1.0)});
    cache.insert("a", 2, {sweep::Cell(2.0)});
    cache.insert("z", 3, {sweep::Cell(3.0)});
    cache.insert("b", 4, {sweep::Cell(4.0)});
    const std::vector<std::string> expect = {"a", "b", "m", "z"};
    EXPECT_EQ(cache.sortedKeys(), expect);
}

TEST(ResultCache, CompactIsByteIdenticalAcrossInsertHistories)
{
    // Determinism regression: the persisted cache must be a function
    // of its *contents*, never of hash-map layout or insertion
    // history. Build the same cache two ways — different insert
    // orders, one with a superseded upsert line — compact both, and
    // require the files to match byte for byte.
    const auto path_a = tempPath("opt_cache_compact_a.jsonl");
    const auto path_b = tempPath("opt_cache_compact_b.jsonl");
    const std::vector<std::string> keys = {
        "experiment=cache n=64", "experiment=cache n=128",
        "experiment=cache n=256", "experiment=cache n=512"};

    ResultCache a(42);
    ASSERT_EQ(a.open(path_a), "");
    for (const auto &key : keys)
        a.insert(key, specSeed(42, key), {sweep::Cell(0.5)});
    ASSERT_EQ(a.compact(), "");

    ResultCache b(42);
    ASSERT_EQ(b.open(path_b), "");
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        b.insert(*it, specSeed(42, *it), {sweep::Cell("stale")});
    // Repair every entry; the appended duplicates must vanish.
    for (const auto &key : keys)
        b.upsert(key, specSeed(42, key), {sweep::Cell(0.5)});
    ASSERT_EQ(b.compact(), "");

    const auto bytes = fileBytes(path_a);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, fileBytes(path_b));

    // The compacted file is still a valid cache and still appendable.
    ResultCache warm(42);
    ASSERT_EQ(warm.open(path_a), "");
    EXPECT_EQ(warm.stats().resident, keys.size());
    for (const auto &key : keys) {
        const auto hit = warm.lookup(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->seed, specSeed(42, key));
        EXPECT_EQ(hit->row.at(0).toString(), "0.5");
    }
    warm.insert("experiment=cache n=1024",
                specSeed(42, "experiment=cache n=1024"),
                {sweep::Cell(0.25)});
    ResultCache again(42);
    ASSERT_EQ(again.open(path_a), "");
    EXPECT_EQ(again.stats().resident, keys.size() + 1);
}

TEST(ResultCache, CompactRequiresABackingFile)
{
    ResultCache cache(kBase);
    cache.insert("k", 1, {sweep::Cell(1.0)});
    EXPECT_NE(cache.compact(), "");
}

// ---------------------------------------------------------------------------
// Eviction: an unbacked store is an LRU (a lookup hit counts as a
// use); a backed store keeps every entry, its log being the durable
// copy.
// ---------------------------------------------------------------------------

TEST(ResultCache, EvictsTheLeastRecentlyUsedEntry)
{
    ResultCache cache(kBase, {.capacity_per_shard = 2});
    EXPECT_TRUE(put(cache, "a"));
    EXPECT_TRUE(put(cache, "b"));

    // Touch "a": it is now the most recent, so "b" is the victim.
    ASSERT_TRUE(cache.lookup("a").has_value());
    EXPECT_TRUE(put(cache, "c"));
    EXPECT_EQ(cache.sortedKeys(), (std::vector<std::string>{"a", "c"}));

    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.resident, 2u);
    EXPECT_EQ(stats.inserts, 3u);
}

TEST(ResultCache, UnbackedEvictionForgetsTheEntry)
{
    ResultCache cache(kBase, {.capacity_per_shard = 1});
    EXPECT_TRUE(put(cache, "a"));
    EXPECT_TRUE(put(cache, "b")); // evicts "a"; nothing else holds it
    EXPECT_FALSE(cache.lookup("a").has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCache, FirstWriterWinsOnDuplicateInsert)
{
    ResultCache cache(kBase, {.capacity_per_shard = 4});
    EXPECT_TRUE(cache.insert("k", specSeed(kBase, "k"), rowFor("k")));
    EXPECT_FALSE(cache.insert("k", specSeed(kBase, "k"),
                              {sweep::Cell("imposter")}));
    const auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(cellBytes(hit->row), cellBytes(rowFor("k")));
    EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(ResultCache, ConfigMinimumsAreClamped)
{
    ResultCache cache(kBase, {.capacity_per_shard = 0});
    EXPECT_TRUE(put(cache, "only"));
    EXPECT_TRUE(cache.lookup("only").has_value());
    EXPECT_TRUE(put(cache, "next")); // cap clamps to 1: evicts "only"
    EXPECT_EQ(cache.sortedKeys(), (std::vector<std::string>{"next"}));
}

TEST(ResultCache, BackedStoreNeverEvicts)
{
    const auto path = tempPath("opt_cache_backed_bound.jsonl");
    ResultCache cache(kBase, {.capacity_per_shard = 1});
    ASSERT_EQ(cache.open(path), "");
    ASSERT_TRUE(cache.backed());

    for (const char *key : {"a", "b", "c"})
        EXPECT_TRUE(put(cache, key));
    for (const char *key : {"a", "b", "c"}) {
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << key;
        EXPECT_EQ(hit->seed, specSeed(kBase, key));
        EXPECT_EQ(cellBytes(hit->row), cellBytes(rowFor(key)));
    }

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.resident, 3u);
}

TEST(ResultCache, SharesTheFileFormatWithTheOptimizerCache)
{
    // The optimizer's --cache file and the server's --cache file are
    // one format: a file one writes, the other loads.
    const auto path = tempPath("opt_cache_shared_format.jsonl");
    {
        ResultCache writer(kBase);
        ASSERT_EQ(writer.open(path), "");
        ASSERT_TRUE(put(writer, "x"));
    }
    server::ServerConfig config;
    config.base_seed = kBase;
    ResultCache cache(config.base_seed, config.cache);
    ASSERT_EQ(cache.open(path), "");
    const auto hit = cache.lookup("x");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(cellBytes(hit->row), cellBytes(rowFor("x")));

    // The seed-identity check holds for every reader: a mismatched
    // base seed is a typed diagnostic, not silent wrong replay.
    ResultCache wrong(kBase + 1, config.cache);
    EXPECT_NE(wrong.open(path), "");
}

// ---------------------------------------------------------------------------
// Concurrency: many threads, few keys, a tiny bound — the shape that
// makes the lock and the eviction path race if they can.
// ---------------------------------------------------------------------------

TEST(ResultCache, StaysCoherentUnderConcurrentClients)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRounds = 200;
    constexpr std::size_t kKeys = 24;
    constexpr std::size_t kBound = 4;

    const auto path = tempPath("opt_cache_concurrent.jsonl");
    for (const bool backed : {false, true}) {
        SCOPED_TRACE(backed ? "backed" : "unbacked");
        ResultCache cache(kBase, {.capacity_per_shard = kBound});
        if (backed) {
            ASSERT_EQ(cache.open(path), "");
        }
        std::vector<std::thread> clients;
        clients.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t) {
            clients.emplace_back([&cache, t]() {
                for (std::size_t round = 0; round < kRounds; ++round) {
                    const std::string key =
                        "spec-" +
                        std::to_string((t * 7 + round) % kKeys);
                    if (const auto hit = cache.lookup(key)) {
                        // A torn row would show up here.
                        ASSERT_EQ(cellBytes(hit->row),
                                  cellBytes(rowFor(key)));
                    } else {
                        cache.insert(key, specSeed(kBase, key),
                                     rowFor(key));
                    }
                }
            });
        }
        for (auto &client : clients)
            client.join();

        const auto stats = cache.stats();
        EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
        if (!backed) {
            EXPECT_LE(stats.resident, kBound);
            EXPECT_EQ(stats.inserts, stats.resident + stats.evictions);
            continue;
        }
        // Every key is touched; racing duplicates collapse to one
        // entry, and the backed store keeps them all.
        EXPECT_EQ(stats.resident, kKeys);
        EXPECT_EQ(stats.inserts, kKeys);
        EXPECT_EQ(stats.evictions, 0u);
        // First writer wins, so the log holds each key once.
        const auto log = fileBytes(path);
        EXPECT_EQ(std::count(log.begin(), log.end(), '\n'),
                  static_cast<std::ptrdiff_t>(kKeys + 1)); // + header
    }
}

} // namespace
} // namespace opt
} // namespace qmh
