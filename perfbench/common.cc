#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include <sys/resource.h>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

void
Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        _hash ^= static_cast<unsigned char>(c);
        _hash *= 0x100000001b3ULL;
    }
}

void
Digest::add(std::uint64_t value)
{
    char bytes[sizeof value];
    for (std::size_t i = 0; i < sizeof value; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    add(std::string_view(bytes, sizeof bytes));
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(_hash));
    return text;
}

void
digestRow(Digest &digest, const Row &row)
{
    for (const auto &cell : row) {
        digest.add(cell.toJson());
        digest.add(std::string_view(","));
    }
    digest.add(std::string_view("\n"));
}

std::string
checkTraceRow(const TraceRowFields &row)
{
    if (row.hits + row.misses != row.accesses)
        return "hits + misses != accesses";
    for (const double share : row.shares)
        if (!(share >= 0.0 && share <= 1.0))
            return "a utilization is outside [0, 1]";
    const double expected = row.makespan_s > 0.0
                                ? row.baseline_s / row.makespan_s
                                : 0.0;
    if (std::fabs(row.speedup - expected) >
        1e-12 * std::max(1.0, std::fabs(expected)))
        return "speedup != baseline_s / makespan_s";
    if (!(row.events > 0.0))
        return "events_executed is 0";
    return {};
}

namespace {

const char *const kShareColumns[] = {"hit_rate", "transfer_utilization",
                                     "mem_utilization",
                                     "block_utilization"};

std::size_t
columnIndex(const std::vector<std::string> &columns, const char *name)
{
    const auto found = std::find(columns.begin(), columns.end(), name);
    if (found == columns.end()) {
        std::fprintf(stderr, "perfbench: rows have no '%s' column\n",
                     name);
        std::exit(1);
    }
    return static_cast<std::size_t>(found - columns.begin());
}

double
number(const Row &row, std::size_t index)
{
    return row.at(index).asNumber().value_or(NAN);
}

std::optional<double>
jsonNumber(std::string_view text, std::string_view key)
{
    std::string pattern;
    pattern.reserve(key.size() + 3);
    pattern.push_back('"');
    pattern.append(key);
    pattern.append("\":");
    const auto pos = text.find(pattern);
    if (pos == std::string_view::npos)
        return std::nullopt;
    // The view points into a record string, so strtod stops at the
    // ',' or '}' that ends the value at the latest.
    const char *begin = text.data() + pos + pattern.size();
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin)
        return std::nullopt;
    return value;
}

} // namespace

CellReader::CellReader(const std::vector<std::string> &columns)
    : _accesses(columnIndex(columns, "accesses")),
      _hits(columnIndex(columns, "hits")),
      _misses(columnIndex(columns, "misses")),
      _baseline(columnIndex(columns, "baseline_s")),
      _makespan(columnIndex(columns, "makespan_s")),
      _speedup(columnIndex(columns, "speedup")),
      _events(columnIndex(columns, "events_executed"))
{
    for (const char *name : kShareColumns)
        _shares.push_back(columnIndex(columns, name));
}

TraceRowFields
CellReader::read(const Row &row) const
{
    TraceRowFields fields;
    fields.accesses = number(row, _accesses);
    fields.hits = number(row, _hits);
    fields.misses = number(row, _misses);
    fields.baseline_s = number(row, _baseline);
    fields.makespan_s = number(row, _makespan);
    fields.speedup = number(row, _speedup);
    fields.events = number(row, _events);
    for (const auto index : _shares)
        fields.shares.push_back(number(row, index));
    return fields;
}

std::optional<TraceRowFields>
readCellsJson(std::string_view cells)
{
    TraceRowFields fields;
    const std::pair<const char *, double *> scalars[] = {
        {"accesses", &fields.accesses},
        {"hits", &fields.hits},
        {"misses", &fields.misses},
        {"baseline_s", &fields.baseline_s},
        {"makespan_s", &fields.makespan_s},
        {"speedup", &fields.speedup},
        {"events_executed", &fields.events}};
    for (const auto &[key, slot] : scalars) {
        const auto value = jsonNumber(cells, key);
        if (!value)
            return std::nullopt;
        *slot = *value;
    }
    for (const char *key : kShareColumns) {
        const auto value = jsonNumber(cells, key);
        if (!value)
            return std::nullopt;
        fields.shares.push_back(*value);
    }
    return fields;
}

double
maxRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
medianRate(const std::vector<Chunk> &chunks)
{
    std::vector<double> rates;
    for (const auto &chunk : chunks)
        rates.push_back(static_cast<double>(chunk.valid) / chunk.seconds);
    return quantile(rates, 0.5);
}

void
reportEndToEnd(Report &report, const std::vector<RequestTiming> &timings,
               const std::vector<Chunk> &chunks,
               std::size_t points_requested,
               const std::vector<double> &setup_s)
{
    std::vector<std::vector<double>> request_ms(chunks.size());
    std::vector<std::vector<double>> first_row_ms(chunks.size());
    std::vector<double> all_request_ms;
    for (const auto &timing : timings) {
        request_ms.at(timing.chunk).push_back(timing.request_ms);
        first_row_ms.at(timing.chunk).push_back(timing.first_row_ms);
        all_request_ms.push_back(timing.request_ms);
    }
    std::vector<double> p50, p90, first_p50;
    std::size_t valid = 0;
    double timed_s = 0.0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        p50.push_back(quantile(request_ms[c], 0.5));
        p90.push_back(quantile(request_ms[c], 0.9));
        first_p50.push_back(quantile(first_row_ms[c], 0.5));
        valid += chunks[c].valid;
        timed_s += chunks[c].seconds;
    }
    const double overall_p90 = quantile(all_request_ms, 0.9);
    const auto beyond =
        std::count_if(all_request_ms.begin(), all_request_ms.end(),
                      [&](double v) { return v > overall_p90; });
    report.note("requests " + std::to_string(timings.size()) + " in " +
                std::to_string(chunks.size()) + " chunks, beyond p90 " +
                std::to_string(beyond) + ", points " +
                std::to_string(points_requested) + ", timed " +
                std::to_string(timed_s) + " s, set-ups " +
                std::to_string(setup_s.size()));
    if (beyond < 10)
        report.fail("fewer than 10 requests beyond p90");

    report.set("points_per_s", medianRate(chunks), "1/s");
    report.set("request_ms_p50", quantile(p50, 0.5), "ms");
    report.set("request_ms_p90", quantile(p90, 0.5), "ms");
    report.set("first_row_ms_p50", quantile(first_p50, 0.5), "ms");
    report.set("setup_s", quantile(setup_s, 0.5), "s");
    report.set("max_rss_mb", maxRssMb(), "MiB");
    report.set("success_rate",
               points_requested
                   ? static_cast<double>(valid) /
                         static_cast<double>(points_requested)
                   : 0.0,
               "ratio");
}

void
checkDigest(Report &report, const Options &options, const Digest &digest,
            bool complete)
{
    report.note("row digest " + digest.hex());
    if (!options.pinned_digest)
        return;
    if (!complete) {
        report.note("row digest not compared with the pin: some points "
                    "never arrived");
        return;
    }
    if (digest.hex() != *options.pinned_digest)
        report.fail("row digest " + digest.hex() + " != pinned " +
                    *options.pinned_digest);
    else
        report.note("row digest matches the pin");
}

void
reportLayers(Report &report, const LayerSamples &s)
{
    report.set("api.validate_us", mean(s.validate_us), "us");
    report.set("gen.build_us", mean(s.gen_us), "us");
    report.set("circuit.dag_us", mean(s.dag_us), "us");
    report.set("sched.flat_us", mean(s.flat_us), "us");
    report.set("trace.run_us", mean(s.trace_us), "us");
    report.set("trace.events", mean(s.events), "count");
    const double events = std::accumulate(s.events.begin(),
                                          s.events.end(), 0.0);
    const double trace_us = std::accumulate(s.trace_us.begin(),
                                            s.trace_us.end(), 0.0);
    report.set("trace.ns_per_event",
               events > 0 ? 1000.0 * trace_us / events : 0.0, "ns");
    report.set("row.format_us", mean(s.row_us), "us");
    report.set("session.run_us", mean(s.run_us), "us");
    report.set("session.wait_us", mean(s.wait_us), "us");
    report.set("session.idle_share", mean(s.idle_share), "ratio");
    report.set("service.decode_us", mean(s.decode_us), "us");
    report.set("service.encode_us", mean(s.encode_us), "us");
    report.set("server.accepted_ms", quantile(s.accepted_ms, 0.5), "ms");
    report.set("store.lookup_us", mean(s.lookup_us), "us");
    report.set("store.insert_us", mean(s.insert_us), "us");
    report.set("store.resident", s.resident, "count");
}

void
reportLedger(Report &report, const Ledger &ledger)
{
    double sum = 0.0;
    for (const auto &[name, us] : ledger.stages)
        sum += us;
    report.note("stage ledger (worker-us per point; untraced " +
                std::to_string(ledger.untraced_us) + ", traced " +
                std::to_string(ledger.traced_us) + ")");
    for (const auto &[name, us] : ledger.stages)
        report.note("  " + name + " " + std::to_string(us) + " (" +
                    std::to_string(ledger.untraced_us > 0
                                       ? 100.0 * us / ledger.untraced_us
                                       : 0.0) +
                    "% of untraced)");
    const double gap = ledger.untraced_us > 0
                           ? (sum - ledger.untraced_us) / ledger.untraced_us
                           : 0.0;
    report.note("  stage sum " + std::to_string(sum) + ", gap " +
                std::to_string(100.0 * gap) + "% of untraced, tracing "
                "overhead " +
                std::to_string(ledger.traced_us - ledger.untraced_us) +
                " us per point");
    if (!ledger.checked)
        report.note("  ledger not checked: these stages overlap on "
                    "several threads");
    else if (std::fabs(gap) > 0.10)
        report.note("  WARN: the stage ledger misses the untraced time "
                    "by more than 10%");
    else
        report.note("  stage ledger closes within 10%");
    report.set("ledger.untraced_us", ledger.untraced_us, "us");
    report.set("ledger.overhead_us",
               ledger.traced_us - ledger.untraced_us, "us");
    report.set("ledger.stage_sum_us", sum, "us");
    report.set("ledger.gap_share", std::fabs(gap), "ratio");
}

std::string
requestLine(const std::string &id, const std::vector<std::string> &keys,
            bool spec_seeded)
{
    std::string line = "{\"op\":\"sweep\",\"id\":" +
                       qmh::sweep::jsonQuote(id) + ",\"specs\":[";
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i)
            line.push_back(',');
        line += qmh::sweep::jsonQuote(keys[i]);
    }
    line += "]";
    if (spec_seeded)
        line += ",\"seed_mode\":\"spec\"";
    line += "}";
    return line;
}

} // namespace perfbench
