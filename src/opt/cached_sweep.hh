/**
 * @file
 * Cache-aware spec sweeps.
 *
 * runSpecSweepCached() is a Session sweep with a memo in front:
 * points whose canonical spec string is already in the ResultCache
 * replay their stored rows; only the misses fan across the worker
 * pool, and their results are inserted afterwards. Per-point RNG
 * streams come from opt::specSeed — a function of the spec string
 * rather than the grid index — so a row is the same no matter which
 * sweep, ordering or refinement round requests it, which is what
 * makes replay bit-identical (the one deliberate difference from the
 * index-seeded Session::submit).
 */

#ifndef QMH_OPT_CACHED_SWEEP_HH
#define QMH_OPT_CACHED_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "api/experiment.hh"
#include "opt/result_cache.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace opt {

/** A cached sweep's table plus where its rows came from. */
struct CachedSweepOutcome
{
    /** Kind columns plus a trailing "seed" column, rows in spec order. */
    sweep::ResultTable table{{"spec", "seed"}};
    /** Points executed by an engine this call. */
    std::size_t simulated = 0;
    /** Points replayed from the cache (or repeated within the list). */
    std::size_t cached = 0;
    /** True when the sweep stopped before incorporating every spec. */
    bool cancelled = false;
};

/**
 * Mid-sweep control: progress observation and early termination.
 * Rows are *incorporated* — appended to the outcome table, counted,
 * and (for simulated points) upserted into the cache — strictly in
 * spec order, so both cutoffs are deterministic for a fixed spec
 * list on any thread count: the outcome is always a prefix of the
 * uncontrolled sweep. Points already in flight when the cutoff hits
 * finish but are discarded un-incorporated (and never cached).
 */
struct CachedSweepControl
{
    /** Incorporate at most this many rows; 0 = no limit. */
    std::size_t row_limit = 0;
    /**
     * Called after each incorporated row with (rows done so far,
     * total specs); return false to cancel the rest of the sweep.
     */
    std::function<bool(std::size_t done, std::size_t total)> on_row;
};

/**
 * Run every spec, consulting (and filling) @p cache. All specs must
 * validate and share one kind — violations panic (Session::submit is
 * the typed alternative).
 * @p cache may be null (every point simulates; nothing persists);
 * otherwise its baseSeed() must equal the runner's, or this panics.
 * Rows land in spec order and are bit-identical across thread counts
 * and across cold/warm invocations with the same base seed. Misses
 * run as an api::Session job, so @p control can watch rows stream in
 * and cut the sweep short with a deterministic prefix.
 */
CachedSweepOutcome
runSpecSweepCached(sweep::SweepRunner &runner,
                   const std::vector<api::ExperimentSpec> &specs,
                   ResultCache *cache = nullptr,
                   const CachedSweepControl &control = {});

} // namespace opt
} // namespace qmh

#endif // QMH_OPT_CACHED_SWEEP_HH
