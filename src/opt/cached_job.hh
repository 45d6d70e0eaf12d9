/**
 * @file
 * The one cached sweep: an api::Session job with the result store in
 * front, read a row at a time.
 *
 * A CachedJob resolves every point of a batch before anything runs.
 * A store hit replays its row, a repeat of an equal earlier spec
 * replays that spec's row, and every other point is a miss. Only the
 * misses run, as one Session job whose per-point streams are
 * opt::specSeed streams — a function of the canonical spec string,
 * not of the batch position — so a row is the same whichever sweep,
 * order or refinement round asks for it. That is what makes replay
 * bit-identical, and what the optimizer's frontierSearch and the
 * server's spec-seeded requests both build on.
 *
 * Rows are handed out strictly in batch order, through poll() (never
 * blocks; an event loop's call) or next() (blocks). A miss's row is
 * written to the store at the moment it is handed out, so the store
 * holds exactly the rows a caller has seen: a cut — the row limit or
 * cancel() — leaves the same prefix in both, on any thread count.
 *
 * Index-seeded batches (sweep::pointSeed by position) are
 * positional, so they bypass the store and repeat detection: every
 * point is a miss. A store built for another base seed is bypassed
 * too — its rows are not this job's rows.
 */

#ifndef QMH_OPT_CACHED_JOB_HH
#define QMH_OPT_CACHED_JOB_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/service.hh"
#include "api/session.hh"
#include "opt/result_cache.hh"

namespace qmh {
namespace opt {

/** What a cached job did (read from CachedJob::wait()). */
struct CachedJobResult
{
    std::size_t rows = 0;     ///< rows handed out
    std::size_t replayed = 0; ///< of those, store hits and repeats
    /** Engine runs: failed points and points in flight at a cut
     *  included. */
    std::size_t simulated = 0;
    /**
     * What ended the row stream before the limit: an execution
     * failure, or a refused submission. A failure among points past a
     * cut is not reported; nobody asked for those rows.
     */
    std::optional<api::Error> failure;
};

class CachedJob
{
  public:
    /**
     * Resolve every point of @p experiments (a runnable batch, see
     * api::validateExperiments) without running any. @p cache may be
     * null; it is consulted only in Spec mode and only when its base
     * seed is @p base_seed. A stored row whose width or seed does not
     * match is a miss, and its fresh row replaces the entry. Equal
     * specs run once. @p limit caps the rows handed out (0 = all);
     * misses past it are never submitted.
     */
    CachedJob(std::vector<std::unique_ptr<api::Experiment>> experiments,
              api::SeedMode mode, std::uint64_t base_seed,
              ResultCache *cache = nullptr, std::size_t limit = 0);

    /** Cancels the misses' job; rows not handed out are dropped. */
    ~CachedJob();

    CachedJob(const CachedJob &) = delete;
    CachedJob &operator=(const CachedJob &) = delete;

    /** Kind columns plus a trailing "seed"; every row carries it. */
    const std::vector<std::string> &columns() const { return _columns; }

    /** Points in the batch (the limit does not shrink it). */
    std::size_t totalPoints() const { return _points.size(); }

    /**
     * Submit the misses to @p session as one job; @p on_retire is its
     * SubmitOptions::on_retire. Rows resolved without simulation can
     * be read before this call. Call it once.
     */
    void start(api::Session &session,
               std::function<void()> on_retire = {});

    /**
     * Next row in batch order, without blocking. Ready fills @p row.
     * Pending: the next row is a miss still running (or not yet
     * started), or the stream is over and the misses' job has not
     * retired yet. End: no further row, and the job has retired.
     */
    api::RowPoll poll(std::vector<sweep::Cell> &row);

    /** Blocking poll(); nullopt at End. Needs start() first. */
    std::optional<std::vector<sweep::Cell>> next();

    /** Hand out no further row; running points finish unseen. */
    void cancel();

    /** Block until the misses' job has retired; the counters. */
    CachedJobResult wait();

  private:
    enum class Source : unsigned char { Hit, Repeat, Miss };

    struct Point
    {
        Source source = Source::Miss;
        bool stale = false;   ///< Miss over an outdated store entry
        bool shared = false;  ///< Miss whose row a later Repeat reads
        std::size_t first = 0;  ///< Repeat: the equal earlier miss
        std::uint64_t seed = 0;
        std::string key;      ///< canonical spec (Spec mode)
        std::vector<sweep::Cell> row; ///< Hit, or kept for Repeats
    };

    api::RowPoll take(std::vector<sweep::Cell> &row, bool block);
    /** Cancel the job's tail; true once it has retired. */
    bool retire(bool block);
    /** Collect the retired job's counters. */
    void settle();

    /** The batch, until start() submits its misses. */
    std::vector<std::unique_ptr<api::Experiment>> _experiments;
    std::vector<std::string> _columns;
    std::vector<Point> _points;
    ResultCache *_cache; ///< null unless this job consults it
    std::size_t _end;    ///< rows to hand out at most
    std::size_t _next = 0;
    std::size_t _replayed = 0;
    std::size_t _simulated = 0;

    std::optional<api::JobHandle> _job;
    std::optional<api::Error> _failure;

    bool _started = false;
    bool _cancelled = false;
    bool _ended = false;   ///< the stream stopped short of _end
    bool _retired = false; ///< _job's counters collected
};

} // namespace opt
} // namespace qmh

#endif // QMH_OPT_CACHED_JOB_HH
