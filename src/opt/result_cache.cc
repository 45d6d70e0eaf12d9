#include "result_cache.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>
#include <type_traits>

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
entryLine(const std::string &spec_key, std::uint64_t seed,
          std::span<const sweep::Cell> row)
{
    std::string tags;
    for (const auto &cell : row)
        tags += cell.typeTag();
    std::string out = "{\"spec\":" + sweep::jsonQuote(spec_key) +
                      ",\"seed\":" + quotedUint(seed) +
                      ",\"tags\":" + sweep::jsonQuote(tags) +
                      ",\"row\":[";
    for (std::size_t i = 0; i < row.size(); ++i)
        out += (i ? "," : "") + sweep::jsonQuote(row[i].toString());
    return out + "]}";
}

/** Packed tag of a text cell equal to its entry's key (no payload). */
constexpr char key_tag = 'k';

template <typename T>
void
appendRaw(std::string &out, T value)
{
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    out.append(bytes, sizeof value);
}

template <typename T>
T
readRaw(const char *&at)
{
    T value;
    std::memcpy(&value, at, sizeof value);
    at += sizeof value;
    return value;
}

/** @p row in the packed layout of the file comment of result_cache.hh. */
std::string
pack(std::string_view key, std::span<const sweep::Cell> row)
{
    // Sized exactly up front: a grown string's spare capacity would
    // be held for the entry's lifetime.
    std::size_t size = 0;
    for (const auto &cell : row) {
        const auto *text = std::get_if<std::string>(&cell.value());
        size += 1 + (!text          ? sizeof(std::uint64_t)
                     : *text == key ? 0
                                    : sizeof(std::uint32_t) + text->size());
    }
    std::string out;
    out.reserve(size);
    for (const auto &cell : row) {
        std::visit(
            [&](const auto &value) {
                using T = std::decay_t<decltype(value)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    if (value == key) {
                        out += key_tag;
                        return;
                    }
                    if (value.size() >
                        std::numeric_limits<std::uint32_t>::max())
                        qmh_panic("ResultCache: a ", value.size(),
                                  "-byte text cell");
                    out += 's';
                    appendRaw(out,
                              static_cast<std::uint32_t>(value.size()));
                    out += value;
                } else {
                    out += cell.typeTag();
                    appendRaw(out, value);
                }
            },
            cell.value());
    }
    return out;
}

/** The cells pack(@p key, row) turned into @p packed. */
std::vector<sweep::Cell>
unpack(const std::string &key, std::string_view packed)
{
    const char *const end = packed.data() + packed.size();
    std::size_t cells = 0;
    for (const char *at = packed.data(); at != end; ++cells) {
        const char tag = *at++;
        if (tag == 's')
            at += readRaw<std::uint32_t>(at);
        else if (tag != key_tag)
            at += sizeof(std::uint64_t);
    }
    // One cell spare: every sweep row appends its seed column.
    std::vector<sweep::Cell> row;
    row.reserve(cells + 1);
    for (const char *at = packed.data(); at != end;) {
        switch (*at++) {
        case key_tag:
            row.emplace_back(key);
            break;
        case 's': {
            const auto size = readRaw<std::uint32_t>(at);
            row.emplace_back(std::string(at, size));
            at += size;
            break;
        }
        case 'd':
            row.emplace_back(readRaw<double>(at));
            break;
        case 'i':
            row.emplace_back(readRaw<std::int64_t>(at));
            break;
        default:
            row.emplace_back(readRaw<std::uint64_t>(at));
            break;
        }
    }
    return row;
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
    // FNV-1a 64 over the spec, folded through pointSeed. The constants
    // are load-bearing: every cache file persists seeds derived here,
    // so changing the hash invalidates them all.
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (const char c : canonical_spec) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
    }
    return sweep::pointSeed(base_seed, hash);
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
    std::vector<std::pair<std::string, Entry>> loaded;
    CachedResult parsed;
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
        if (!parseEntry(line, spec_key, parsed))
            return "corrupt cache entry at " + where;
        if (parsed.seed != specSeed(_base_seed, spec_key))
            return "cache entry at " + where +
                   " carries a seed that does not match its spec";
        entry.seed = parsed.seed;
        entry.packed = pack(spec_key, parsed.row);
    }
    if (in.bad())
        return "read error while loading cache file '" + path + "'";

    // Last-wins: upsert() appends the repaired version of a stale
    // entry, so a later line for a key supersedes an earlier one. A
    // key memoized before open() also takes the file's row, which the
    // seed check above proved replayable.
    for (auto &[spec_key, entry] : loaded)
        setLocked(spec_key, entry.seed, std::move(entry.packed));
    _path = path;
    _backed = true;
    _needs_header = !saw_header;
    return "";
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
    // Unpacked under the lock: once it is released, the entry may be
    // evicted or replaced.
    return CachedResult{found->second.seed,
                        unpack(found->first, found->second.packed)};
}

bool
ResultCache::insert(const std::string &spec_key, std::uint64_t seed,
                    std::span<const sweep::Cell> row)
{
    auto packed = pack(spec_key, row);
    std::lock_guard<std::mutex> lock(_mutex);
    if (_entries.count(spec_key))
        return false;
    storeLocked(spec_key, seed, std::move(packed), row);
    return true;
}

void
ResultCache::upsert(const std::string &spec_key, std::uint64_t seed,
                    std::span<const sweep::Cell> row)
{
    auto packed = pack(spec_key, row);
    std::lock_guard<std::mutex> lock(_mutex);
    storeLocked(spec_key, seed, std::move(packed), row);
}

bool
ResultCache::setLocked(const std::string &spec_key, std::uint64_t seed,
                       std::string packed)
{
    const auto [it, fresh] = _entries.try_emplace(spec_key);
    auto &entry = it->second;
    if (fresh)
        entry.recency = _recency.insert(_recency.begin(), &it->first);
    else
        _recency.splice(_recency.begin(), _recency, entry.recency);
    _stats.row_bytes -= entry.packed.size();
    _stats.row_bytes += packed.size();
    entry.seed = seed;
    entry.packed = std::move(packed);
    return fresh;
}

void
ResultCache::storeLocked(const std::string &spec_key,
                         std::uint64_t seed, std::string packed,
                         std::span<const sweep::Cell> row)
{
    _stats.inserts += setLocked(spec_key, seed, std::move(packed));
    // The new entry is the most recent, so it is never the victim.
    while (!_backed && _entries.size() > _capacity) {
        const auto victim = _entries.find(*_recency.back());
        _recency.pop_back();
        _stats.row_bytes -= victim->second.packed.size();
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
    _append << entryLine(spec_key, seed, row) << '\n';
    _append.flush();
    if (!_append)
        warn("ResultCache: append to '", _path,
             "' failed; results from this run will not persist");
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
