/**
 * @file
 * Shared pieces of the qmh end-to-end benchmark (perfbench/).
 *
 * The benchmark drives the library only through its public API, from
 * its own files: an in-process api::Session for the two sweep
 * workloads, an in-process server::Server with server::Client
 * connections for the serve workload. Every run does a fixed amount of
 * work generated from the workload seed, so two runs with one seed see
 * identical inputs and must produce byte-identical rows (pinned as a
 * digest at the default seed, see pins.json). All timings are host
 * time from std::chrono::steady_clock; simulated statistics are only
 * checked, never reported as results.
 */

#ifndef QMH_PERFBENCH_BENCH_HH
#define QMH_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/experiment.hh"
#include "api/session.hh"
#include "api/spec.hh"
#include "sweep/emit.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Cell = qmh::sweep::Cell;
using Row = std::vector<Cell>;
using qmh::api::ExperimentSpec;

inline double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Expected row digest (pins.json), checked when set. */
    std::optional<std::string> pinned_digest;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run prints: notes, then the result line. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    void fail(const std::string &why)
    {
        correct = false;
        notes.push_back("FAIL: " + why);
    }
};

/** Linear-interpolation quantile (q in [0, 1]); 0 on no values. */
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double> &values);

/** FNV-1a 64 over row bytes, folded in point order. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t value);
    std::uint64_t value() const { return _hash; }
    std::string hex() const;

  private:
    std::uint64_t _hash = 0xcbf29ce484222325ULL;
};

/** Fold one session row (cells in column order) into @p digest. */
void digestRow(Digest &digest, const Row &row);

/** The trace-row fields the conservation checks read. */
struct TraceRowFields
{
    double accesses = 0, hits = 0, misses = 0;
    double baseline_s = 0, makespan_s = 0, speedup = 0;
    double events = 0;
    /** Every utilization-like column (hit_rate, *_utilization). */
    std::vector<double> shares;
};

/**
 * Conservation checks of one trace row: hits + misses == accesses,
 * every utilization in [0, 1], speedup == baseline_s / makespan_s,
 * events_executed > 0. Empty string = the row passes.
 */
std::string checkTraceRow(const TraceRowFields &row);

/** Reads TraceRowFields out of session rows of one column schema. */
class CellReader
{
  public:
    explicit CellReader(const std::vector<std::string> &columns);
    TraceRowFields read(const Row &row) const;

  private:
    std::size_t _accesses, _hits, _misses, _baseline, _makespan,
        _speedup, _events;
    std::vector<std::size_t> _shares;
};

/**
 * Reads TraceRowFields out of the "cells" object text of a row record
 * (as api::recordRow writes it); nullopt when a field is absent.
 */
std::optional<TraceRowFields> readCellsJson(std::string_view cells);

/** Peak resident set of this process, in MiB. */
double maxRssMb();

/** One request as its caller saw it. */
struct RequestTiming
{
    double request_ms = 0.0;   ///< submit until done / retirement
    double first_row_ms = 0.0; ///< submit until the first row
    std::size_t chunk = 0;     ///< the timed phase's chunk it ran in
};

/**
 * One of the equal chunks a timed phase is cut into. Every chunk does
 * the same work (a sweep pass) or the same mix (a block of serve
 * requests), so the median over chunks shrugs off bursts of host noise.
 */
struct Chunk
{
    double seconds = 0.0;
    std::size_t valid = 0; ///< points delivered as valid rows
};

/** Median over @p chunks of each chunk's valid points per second. */
double medianRate(const std::vector<Chunk> &chunks);

/**
 * The seven end-to-end metrics of an untraced run. Timings are the
 * median over chunks of each chunk's figure; setup_s is the median of
 * the run's set-ups.
 */
void reportEndToEnd(Report &report,
                    const std::vector<RequestTiming> &timings,
                    const std::vector<Chunk> &chunks,
                    std::size_t points_requested,
                    const std::vector<double> &setup_s);

/** Compare @p digest with the pinned one, when the run has a pin. */
void checkDigest(Report &report, const Options &options,
                 const Digest &digest, bool complete);

/** Per-layer samples the traced run gathers (one entry per span). */
struct LayerSamples
{
    std::vector<double> validate_us;  ///< per point
    std::vector<double> accepted_ms;  ///< per request
    std::vector<double> gen_us, dag_us, flat_us, trace_us, row_us;
    std::vector<double> events;
    std::vector<double> run_us, wait_us; ///< per point, in the session
    std::vector<double> idle_share;      ///< per request
    std::vector<double> decode_us;       ///< per request
    std::vector<double> encode_us;       ///< per row
    std::vector<double> lookup_us, insert_us;
    double resident = 0;
};

/** One request of a session pass. */
struct SessionRequest
{
    std::vector<ExperimentSpec> specs;
    /** Explicit per-point seeds; empty = index seeds off the base. */
    std::vector<std::uint64_t> seeds;
};

/** What a traced session pass measured and produced. */
struct TracedPass
{
    Chunk chunk;
    std::size_t failed = 0;
    Digest digest;
    std::vector<std::string> problems;
    std::vector<std::string> columns;
    /** Rows per request, in point order. */
    std::vector<std::vector<Row>> rows;
};

/**
 * Run one pass over @p requests closed loop on @p session with spans
 * around the calls into each layer: api::validateExperiments on the
 * caller, then a benchmark-owned delegating Experiment per point that
 * times Experiment::run on the worker (rows unchanged). The rows are
 * kept for the replays.
 */
TracedPass tracedSessionPass(qmh::api::Session &session,
                             const std::vector<SessionRequest> &requests,
                             std::uint64_t base_seed, unsigned workers,
                             LayerSamples &samples);

/** One trace point to replay, with the row the session produced. */
struct ReplayPoint
{
    ExperimentSpec spec;
    std::uint64_t seed = 0;
    TraceRowFields row;
};

/**
 * Replay trace points' stages, each timed around its public call:
 * api::buildWorkload, the DependencyGraph constructor, the
 * flat-baseline sched::listSchedule, trace::runTrace and printSpec.
 * Blocks of @p block consecutive points (one request each) are dealt
 * to @p threads threads, the live worker count, so the stages run
 * under the same contention as in the session. Returns a diagnostic
 * per point whose replayed run does not reproduce its row (events and
 * makespan).
 */
std::vector<std::string> replayStages(const std::vector<ReplayPoint> &points,
                                      std::size_t block, unsigned threads,
                                      LayerSamples &samples);

/**
 * Replay the wire and store layers on a run's own data: decode each
 * request line (api::parseServiceRequest), encode each row
 * (api::recordRow), then insert every row into a fresh
 * server::SharedCache and look each key up again. Returns a
 * diagnostic when a replayed call fails, else empty.
 */
std::string replayServiceAndStore(const std::vector<std::string> &lines,
                           const std::vector<std::string> &columns,
                           const std::vector<std::string> &keys,
                           const std::vector<std::uint64_t> &seeds,
                           const std::vector<Row> &rows,
                           LayerSamples &samples);

/** Print the per-layer metrics gathered in @p samples. */
void reportLayers(Report &report, const LayerSamples &samples);

/** The stage ledger: stages per point against the untraced time. */
struct Ledger
{
    double untraced_us = 0.0; ///< worker-µs per point, untraced
    double traced_us = 0.0;   ///< worker-µs per point, traced
    std::vector<std::pair<std::string, double>> stages;
    bool checked = true;      ///< false where stages overlap threads
};
void reportLedger(Report &report, const Ledger &ledger);

/** Sweep request line of the JSONL protocol for @p keys (specs). */
std::string requestLine(const std::string &id,
                        const std::vector<std::string> &keys,
                        bool spec_seeded);

Report runSweep(const Options &options, bool distinct);
Report runServe(const Options &options);

} // namespace perfbench

#endif // QMH_PERFBENCH_BENCH_HH
