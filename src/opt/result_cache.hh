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
 * An entry is {seed, packed, recency}: its row is held as one byte
 * string and expanded back into cells only by lookup().
 * Each cell is one tag byte (Cell::typeTag()) and its payload:
 *
 *   'd' 'i' 'u'  the 8 raw bytes of the number (NaN payloads, -0.0
 *                and infinities replay bit for bit)
 *   's'          a 4-byte length, then the text
 *   'k'          nothing: a text cell equal to the entry's key (every
 *                cached sweep row's spec column), so the spec is held
 *                once
 *
 * A 28-cell trace row packs into 246 bytes, where the same row as a
 * cell array takes 1,120; stats().row_bytes sums the packed bytes. A
 * serving process holds about 0.97 KiB less per stored row than with
 * unpacked rows (EXPERIMENTS.md, "Packed store entries").
 *
 * The log is JSON-lines: a header naming the format and base seed,
 * then one line per row as (type-tag, exact text) cells, so a
 * replayed row is indistinguishable from a fresh one. The log is only
 * appended to: an upsert() adds the replacement line and leaves the
 * old one, and open() keeps the last line of each key.
 */

#ifndef QMH_OPT_RESULT_CACHE_HH
#define QMH_OPT_RESULT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/emit.hh"

namespace qmh {
namespace opt {

/**
 * Spec-addressed seed: FNV-1a 64 of @p canonical_spec folded through
 * sweep::pointSeed(). This is the seeding of every string-addressed
 * surface (the service's seed_mode="spec", the result store): a row
 * is a function of (base seed, spec) alone, so a spec's stream does
 * not depend on which sweep, grid order, round or thread count asked
 * for it.
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
    std::size_t row_bytes = 0; ///< packed row bytes held now
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

    std::uint64_t baseSeed() const { return _base_seed; }

    /**
     * Cached result for @p spec_key; nullopt on miss. The row has
     * room for one more cell, the seed column every sweep row
     * appends, so appending it does not reallocate.
     */
    std::optional<CachedResult> lookup(const std::string &spec_key);

    /**
     * Memoize @p row for @p spec_key. First writer wins: returns
     * false, and changes nothing, when the key is already present.
     */
    bool insert(const std::string &spec_key, std::uint64_t seed,
                std::span<const sweep::Cell> row);

    /**
     * Like insert(), but overwrite an existing entry (the log gets
     * the replacement; reload is last-wins). This repairs a stale
     * entry, one whose row no longer matches its schema.
     */
    void upsert(const std::string &spec_key, std::uint64_t seed,
                std::span<const sweep::Cell> row);

    ResultCacheStats stats() const;

  private:
    struct Entry
    {
        std::uint64_t seed = 0;
        std::string packed; ///< the row's cells (file comment)
        std::list<const std::string *>::iterator recency;
    };

    /**
     * Set @p spec_key's entry to (@p seed, @p packed) and make it the
     * most recent; true if the key is new.
     */
    bool setLocked(const std::string &spec_key, std::uint64_t seed,
                   std::string packed);
    /**
     * setLocked(), then evict (unbacked) or append @p row, the cells
     * @p packed holds, to the log (backed).
     */
    void storeLocked(const std::string &spec_key, std::uint64_t seed,
                     std::string packed,
                     std::span<const sweep::Cell> row);

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
