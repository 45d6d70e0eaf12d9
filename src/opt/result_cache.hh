/**
 * @file
 * Spec-keyed memoization of experiment results: the one result store
 * of the CLIs, the benches, the optimizer and the server.
 *
 * Every row an api::Experiment produces is a pure function of
 * (canonical spec string, RNG seed), and specSeed() derives the seed
 * from that same string. A ResultCache therefore memoizes rows under
 * the canonical spec string alone and replays them bit-identically.
 *
 * One mutex, one key -> entry map and one recency list; each key is
 * held once. An unbacked store is an LRU bounded by its config (a
 * lookup hit counts as a use). A backed store never evicts: its log
 * is the durable copy of every entry.
 *
 * The log is JSON-lines: a header naming the format and base seed,
 * then one line per row as (type-tag, exact text) cells, so a
 * replayed row is indistinguishable from a fresh one.
 */

#ifndef QMH_OPT_RESULT_CACHE_HH
#define QMH_OPT_RESULT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/emit.hh"

namespace qmh {
namespace opt {

/**
 * Spec-addressed seed (sweep::keySeed): a spec's stream does not
 * depend on which sweep, grid order or round asked for it.
 */
std::uint64_t specSeed(std::uint64_t base_seed,
                       std::string_view canonical_spec);

/** One memoized experiment row (engine columns, no seed column). */
struct CachedResult
{
    std::uint64_t seed = 0;
    std::vector<sweep::Cell> row;
};

struct ResultCacheConfig
{
    /**
     * Entry bound of an unbacked store (min 1). It keeps the name of
     * the sharded store it replaced because perfbench sets it, and
     * perfbench only changes together with the benchmark.
     */
    std::size_t capacity_per_shard = 4096;
};

/** Monotonic counters plus the current entry count. */
struct ResultCacheStats
{
    std::size_t hits = 0;      ///< lookup found the key
    std::size_t misses = 0;    ///< lookup found nothing
    std::size_t inserts = 0;   ///< new keys stored
    std::size_t evictions = 0; ///< LRU drops (unbacked only)
    std::size_t resident = 0;  ///< entries held now
};

/**
 * Spec-string -> row store with an optional JSONL log. Thread-safe:
 * a server looks up and inserts on its loop thread while other
 * threads read stats().
 */
class ResultCache
{
  public:
    /** An unbacked store of rows seeded from @p base_seed. */
    explicit ResultCache(std::uint64_t base_seed,
                         ResultCacheConfig config = {});

    /**
     * Bind the log to @p path and load its entries (a missing file is
     * created on first insert). Returns "" on success, else a
     * diagnostic: an unreadable or corrupt line, a foreign header, a
     * base-seed mismatch, or an entry whose seed disagrees with
     * specSeed() — each would silently break bit-identical replay.
     * A rejected file leaves the store unchanged.
     */
    std::string open(const std::string &path);

    bool backed() const;
    std::uint64_t baseSeed() const { return _base_seed; }

    /** Cached result for @p spec_key; nullopt on miss. */
    std::optional<CachedResult> lookup(const std::string &spec_key);

    /**
     * Memoize @p row for @p spec_key. First writer wins: returns
     * false, and changes nothing, when the key is already present.
     */
    bool insert(const std::string &spec_key, std::uint64_t seed,
                std::vector<sweep::Cell> row);

    /**
     * Like insert(), but overwrite an existing entry (the log gets
     * the replacement; reload is last-wins). This repairs a stale
     * entry, one whose row no longer matches its schema.
     */
    void upsert(const std::string &spec_key, std::uint64_t seed,
                std::vector<sweep::Cell> row);

    /**
     * Every key in sorted order: the only walk over the entries, so
     * hash-map layout never leaks into bytes.
     */
    std::vector<std::string> sortedKeys() const;

    /**
     * Rewrite the log as header plus one line per entry in sorted key
     * order, via a temp file and an atomic rename. Equal contents give
     * byte-identical files whatever history built them. Returns "" on
     * success, else a diagnostic (unbacked store, failed write).
     */
    std::string compact();

    ResultCacheStats stats() const;

  private:
    struct Entry
    {
        CachedResult result;
        std::list<const std::string *>::iterator recency;
    };

    /** @p spec_key's entry, made most recent; .second = created. */
    std::pair<Entry *, bool> touchLocked(const std::string &spec_key);
    /** Write @p result, then evict (unbacked) or append (backed). */
    void storeLocked(const std::string &spec_key, CachedResult result);

    const std::uint64_t _base_seed;
    const std::size_t _capacity;

    mutable std::mutex _mutex;
    std::unordered_map<std::string, Entry> _entries;
    /** The keys of _entries, most recently used first. */
    std::list<const std::string *> _recency;
    ResultCacheStats _stats;
    std::string _path;
    bool _backed = false;
    bool _needs_header = false;
    std::ofstream _append;
};

} // namespace opt
} // namespace qmh

#endif // QMH_OPT_RESULT_CACHE_HH
