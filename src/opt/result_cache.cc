#include "result_cache.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>

#include "common/json.hh"
#include "common/logging.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace opt {

namespace {

constexpr int format_version = 1;

std::string
quotedUint(std::uint64_t v)
{
    // Full 64-bit values do not survive as JSON numbers in common
    // tooling (doubles carry 53 bits), so seeds travel as strings.
    return "\"" + std::to_string(v) + "\"";
}

bool
parseUint(const json::Value *value, std::uint64_t &out)
{
    if (!value || !value->isString())
        return false;
    const auto &digits = value->string();
    const char *end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, out);
    return error == std::errc() && stop == end;
}

std::string
entryLine(const std::string &spec_key, const CachedResult &entry)
{
    std::string tags;
    for (const auto &cell : entry.row)
        tags += cell.typeTag();
    std::string out = "{\"spec\":" + sweep::jsonQuote(spec_key) +
                      ",\"seed\":" + quotedUint(entry.seed) +
                      ",\"tags\":" + sweep::jsonQuote(tags) +
                      ",\"row\":[";
    for (std::size_t i = 0; i < entry.row.size(); ++i)
        out += (i ? "," : "") + sweep::jsonQuote(entry.row[i].toString());
    return out + "]}";
}

std::string
headerLine(std::uint64_t base_seed)
{
    return "{\"qmh_result_cache\":" + std::to_string(format_version) +
           ",\"base_seed\":" + quotedUint(base_seed) + "}";
}

/** The base seed a header line declares; nullopt if it is not one. */
std::optional<std::uint64_t>
headerSeed(std::string_view line)
{
    const auto parsed = json::parse(line);
    const auto &doc = parsed.value;
    const auto *version = doc.find("qmh_result_cache");
    std::uint64_t seed = 0;
    if (!parsed.ok() || !doc.isObject() || doc.members().size() != 2 ||
        !version || !version->isNumber() ||
        version->number() != format_version ||
        !parseUint(doc.find("base_seed"), seed))
        return std::nullopt;
    return seed;
}

/** Parse an entryLine(); false when @p line is not one. */
bool
parseEntry(std::string_view line, std::string &spec_key,
           CachedResult &entry)
{
    const auto parsed = json::parse(line);
    const auto &doc = parsed.value;
    const auto *spec = doc.find("spec");
    const auto *tags = doc.find("tags");
    const auto *row = doc.find("row");
    if (!parsed.ok() || !doc.isObject() || doc.members().size() != 4 ||
        !spec || !spec->isString() || !tags || !tags->isString() ||
        !row || !row->isArray() ||
        row->items().size() != tags->string().size() ||
        !parseUint(doc.find("seed"), entry.seed))
        return false;
    spec_key = spec->string();
    entry.row.clear();
    for (std::size_t i = 0; i < row->items().size(); ++i) {
        const auto &text = row->items()[i];
        auto cell = text.isString() ? sweep::Cell::fromTagged(
                                          tags->string()[i], text.string())
                                    : std::nullopt;
        if (!cell)
            return false;
        entry.row.push_back(std::move(*cell));
    }
    return true;
}

} // namespace

std::uint64_t
specSeed(std::uint64_t base_seed, std::string_view canonical_spec)
{
    return sweep::keySeed(base_seed, canonical_spec);
}

ResultCache::ResultCache(std::uint64_t base_seed,
                         ResultCacheConfig config)
    : _base_seed(base_seed),
      _capacity(std::max<std::size_t>(1, config.capacity_per_shard))
{
}

std::string
ResultCache::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_backed)
        return "ResultCache: already open on '" + _path + "'";
    // A directory "opens" fine and then fails every read, which would
    // masquerade as an empty cache that never persists.
    const bool exists = std::filesystem::exists(path);
    if (exists && !std::filesystem::is_regular_file(path))
        return "cache path '" + path + "' is not a regular file";
    std::ifstream in(path);
    if (exists && !in)
        return "cannot read cache file '" + path + "'";

    // Parse the whole file before touching the store: a rejected file
    // must leave it unchanged and must never be appended to.
    std::vector<std::pair<std::string, CachedResult>> loaded;
    bool saw_header = false;
    std::string line;
    for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
        if (line.empty())
            continue;
        const auto where = path + ":" + std::to_string(line_no);
        if (!saw_header) {
            const auto file_seed = headerSeed(line);
            if (!file_seed)
                return "'" + path + "' is not a qmh result cache "
                       "(bad header)";
            if (*file_seed != _base_seed)
                return "cache file '" + path +
                       "' was built with base seed " +
                       std::to_string(*file_seed) + ", this run uses " +
                       std::to_string(_base_seed) +
                       " — cached rows would not replay bit-identically";
            saw_header = true;
            continue;
        }
        auto &[spec_key, entry] = loaded.emplace_back();
        if (!parseEntry(line, spec_key, entry))
            return "corrupt cache entry at " + where;
        if (entry.seed != specSeed(_base_seed, spec_key))
            return "cache entry at " + where +
                   " carries a seed that does not match its spec";
    }
    if (in.bad())
        return "read error while loading cache file '" + path + "'";

    // Last-wins: upsert() appends the repaired version of a stale
    // entry, so a later line for a key supersedes an earlier one. A
    // key memoized before open() also takes the file's row, which the
    // seed check above proved replayable.
    for (auto &[spec_key, entry] : loaded)
        touchLocked(spec_key).first->result = std::move(entry);
    _path = path;
    _backed = true;
    _needs_header = !saw_header;
    return "";
}

bool
ResultCache::backed() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _backed;
}

std::pair<ResultCache::Entry *, bool>
ResultCache::touchLocked(const std::string &spec_key)
{
    const auto [it, fresh] = _entries.try_emplace(spec_key);
    if (fresh)
        it->second.recency = _recency.insert(_recency.begin(), &it->first);
    else
        _recency.splice(_recency.begin(), _recency, it->second.recency);
    return {&it->second, fresh};
}

std::optional<CachedResult>
ResultCache::lookup(const std::string &spec_key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto found = _entries.find(spec_key);
    if (found == _entries.end()) {
        ++_stats.misses;
        return std::nullopt;
    }
    _recency.splice(_recency.begin(), _recency, found->second.recency);
    ++_stats.hits;
    return found->second.result;
}

bool
ResultCache::insert(const std::string &spec_key, std::uint64_t seed,
                    std::vector<sweep::Cell> row)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_entries.count(spec_key))
        return false;
    storeLocked(spec_key, CachedResult{seed, std::move(row)});
    return true;
}

void
ResultCache::upsert(const std::string &spec_key, std::uint64_t seed,
                    std::vector<sweep::Cell> row)
{
    std::lock_guard<std::mutex> lock(_mutex);
    storeLocked(spec_key, CachedResult{seed, std::move(row)});
}

void
ResultCache::storeLocked(const std::string &spec_key,
                         CachedResult result)
{
    const auto [entry, fresh] = touchLocked(spec_key);
    entry->result = std::move(result);
    _stats.inserts += fresh;
    // The new entry is the most recent, so it is never the victim.
    while (!_backed && _entries.size() > _capacity) {
        const auto victim = _entries.find(*_recency.back());
        _recency.pop_back();
        _entries.erase(victim);
        ++_stats.evictions;
    }
    if (!_backed)
        return;
    if (!_append.is_open())
        _append.open(_path, std::ios::app);
    if (_append && _needs_header) {
        _append << headerLine(_base_seed) << '\n';
        _needs_header = false;
    }
    // Flush per entry: a cancelled sweep keeps every point it already
    // paid for.
    _append << entryLine(spec_key, entry->result) << '\n';
    _append.flush();
    if (!_append)
        warn("ResultCache: append to '", _path,
             "' failed; results from this run will not persist");
}

std::vector<std::string>
ResultCache::sortedKeys() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> keys;
    for (const auto *key : _recency)
        keys.push_back(*key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::string
ResultCache::compact()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_backed)
        return "ResultCache: compact() needs an open backing file";
    if (_append.is_open())
        _append.close(); // the rename must swap in a complete file

    std::vector<const std::string *> keys(_recency.begin(),
                                          _recency.end());
    std::sort(keys.begin(), keys.end(),
              [](const auto *a, const auto *b) { return *a < *b; });
    const std::string tmp = _path + ".compact.tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << headerLine(_base_seed) << '\n';
        for (const auto *key : keys)
            out << entryLine(*key, _entries.at(*key).result) << '\n';
        out.flush();
        if (!out)
            return "ResultCache: cannot write '" + tmp + "'";
    }
    std::error_code ec;
    std::filesystem::rename(tmp, _path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return "ResultCache: cannot replace '" + _path +
               "' with its compacted form";
    }
    _needs_header = false;
    return "";
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto stats = _stats;
    stats.resident = _entries.size();
    return stats;
}

} // namespace opt
} // namespace qmh
