/**
 * @file
 * Unit tests for opt::ResultCache, the one result store: the JSONL
 * log and its open()-time checks, the unbacked LRU bound, the backed
 * store that never evicts, and thread-safety under concurrent
 * clients (the TSan job runs this suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/grid.hh"
#include "opt/result_cache.hh"
#include "run_table.hh"
#include "server/server.hh"

namespace qmh {
namespace opt {
namespace {

constexpr std::uint64_t kBase = 7;

using Row = std::vector<sweep::Cell>;

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

Row
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

/** @p cell's alternative and exact bits, texts by their bytes. */
std::string
cellBits(const sweep::Cell &cell)
{
    return std::visit(
        [&cell](const auto &value) {
            using T = std::decay_t<decltype(value)>;
            std::string bits(1, cell.typeTag());
            if constexpr (std::is_same_v<T, std::string>)
                return bits + value;
            else
                return bits + std::to_string(
                                  std::bit_cast<std::uint64_t>(value));
        },
        cell.value());
}

std::vector<std::string>
rowBits(const Row &row)
{
    std::vector<std::string> bits;
    for (const auto &cell : row)
        bits.push_back(cellBits(cell));
    return bits;
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
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_TRUE(cache.insert("k", 7, Row{sweep::Cell(1.5)}));
    EXPECT_FALSE(cache.insert("k", 7, Row{sweep::Cell(9.9)}));
    const auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seed, 7u);
    EXPECT_EQ(hit->row.at(0).toString(), "1.5");
    // Room for the seed column a sweep row appends.
    EXPECT_GE(hit->row.capacity(), hit->row.size() + 1);
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
                     Row{sweep::Cell("Steane [[7,1,3]]"), sweep::Cell(0.1),
                      sweep::Cell(std::int64_t(-3)),
                      sweep::Cell(std::uint64_t(11))});
        cache.insert(nasty, specSeed(42, nasty),
                     Row{sweep::Cell("line\nbreak\tand \"quotes\"")});
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
        cache.insert("k", specSeed(1, "k"), Row{sweep::Cell(1.0)});
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
    api::Session session({.threads = 2});
    const auto seed = session.baseSeed();
    const auto key = api::printSpec(specs.front());
    {
        ResultCache cache(seed);
        ASSERT_EQ(cache.open(path), "");
        cache.insert(key, specSeed(seed, key),
                     Row{sweep::Cell("stale")});  // wrong width
        const auto outcome = tests::runCached(session, specs, &cache);
        EXPECT_EQ(outcome.result.simulated, specs.size()); // stale = miss
    }
    {
        ResultCache cache(seed);
        ASSERT_EQ(cache.open(path), "");
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_GT(hit->row.size(), 1u);  // the repaired row won
        const auto outcome = tests::runCached(session, specs, &cache);
        EXPECT_EQ(outcome.result.simulated, 0u);
    }
}

TEST(ResultCache, ReplaysEveryCellAlternativeBitExactly)
{
    // The store packs each row into one byte string; lookup() must
    // hand back the very cells it was given, alternative and bits.
    const std::string key = "experiment=cache n=64";
    const Row row = {
        sweep::Cell(key), // the key in column 0 ...
        sweep::Cell("text"),
        sweep::Cell(std::string()),
        sweep::Cell(std::string("nul\0inside", 10)),
        sweep::Cell(0.1),
        sweep::Cell(std::bit_cast<double>(0x7ff8'0000'0000'0123ULL)),
        sweep::Cell(-0.0),
        sweep::Cell(std::numeric_limits<double>::infinity()),
        sweep::Cell(-std::numeric_limits<double>::infinity()),
        sweep::Cell(std::numeric_limits<double>::denorm_min()),
        sweep::Cell(std::numeric_limits<std::int64_t>::min()),
        sweep::Cell(std::int64_t(-1)),
        sweep::Cell(std::numeric_limits<std::uint64_t>::max()),
        sweep::Cell(std::uint64_t(0)),
        sweep::Cell(key), // ... and in a later column
        sweep::Cell(key + " "),
    };
    ASSERT_TRUE(std::isnan(row[5].asNumber().value()));
    const auto seed = specSeed(kBase, key);

    ResultCache inserted(kBase);
    ASSERT_TRUE(inserted.insert(key, seed, row));
    const auto hit = inserted.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seed, seed);
    EXPECT_EQ(rowBits(hit->row), rowBits(row));

    ResultCache upserted(kBase);
    upserted.upsert(key, seed, Row{sweep::Cell("stale")});
    upserted.upsert(key, seed, row);
    const auto repaired = upserted.lookup(key);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(rowBits(repaired->row), rowBits(row));

    // Through the log, a cell is what its (tag, text) form holds: the
    // packed store adds no loss of its own (a NaN's payload is the
    // one thing the text form drops).
    Row logged;
    for (const auto &cell : row)
        logged.push_back(
            sweep::Cell::fromTagged(cell.typeTag(), cell.toString())
                .value());
    const auto path = tempPath("opt_cache_bit_exact.jsonl");
    {
        ResultCache writer(kBase);
        ASSERT_EQ(writer.open(path), "");
        ASSERT_TRUE(writer.insert(key, seed, row));
    }
    ResultCache reader(kBase);
    ASSERT_EQ(reader.open(path), "");
    const auto replayed = reader.lookup(key);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->seed, seed);
    EXPECT_EQ(rowBits(replayed->row), rowBits(logged));
}

TEST(ResultCache, RowBytesCountThePackedRows)
{
    // A trace row's spec column is its key, so it packs to one byte;
    // the numbers take nine bytes each.
    const auto spec =
        api::parseSpec("experiment=trace workload=draper n=16").spec;
    api::Session session({.threads = 1, .base_seed = kBase});
    ResultCache cache(kBase, {.capacity_per_shard = 1});
    tests::runCached(session, {spec}, &cache);
    const auto key = api::printSpec(spec);
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->row.size(), 28u);
    ASSERT_EQ(hit->row[0].toString(), key);
    const auto bytes = cache.stats().row_bytes;
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, 300u);

    // Replacing an entry or evicting it gives its bytes back.
    cache.upsert(key, hit->seed, hit->row);
    EXPECT_EQ(cache.stats().row_bytes, bytes);
    ASSERT_TRUE(cache.insert("k", 1, Row{sweep::Cell(1.0)}));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().row_bytes, 9u);
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

    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.resident, 2u);
    EXPECT_EQ(stats.inserts, 3u);
    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());
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
                              Row{sweep::Cell("imposter")}));
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
    EXPECT_EQ(cache.stats().resident, 1u);
    EXPECT_FALSE(cache.lookup("only").has_value());
    EXPECT_TRUE(cache.lookup("next").has_value());
}

TEST(ResultCache, BackedStoreNeverEvicts)
{
    const auto path = tempPath("opt_cache_backed_bound.jsonl");
    ResultCache cache(kBase, {.capacity_per_shard = 1});
    ASSERT_EQ(cache.open(path), "");

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
