/**
 * @file
 * Coarse-to-fine adaptive search over numeric spec axes.
 *
 * The paper's design exercise — pick the hierarchy parameters that
 * match available parallelism — is a search, not a table: most of an
 * exhaustive SpecGrid is spent simulating points far from the
 * optimum. frontierSearch() starts from a coarse grid, ranks the
 * evaluated points by an objective column, and repeatedly refines
 * around the current frontier (the top-ranked points): each round
 * proposes, per frontier point and axis, the adjacent explored
 * values and the midpoints toward them on a fixed dyadic lattice.
 * Refinement stops when the lattice is exhausted (adjacent indices),
 * the point budget is hit, or no new candidate survives validation.
 *
 * Every candidate value lives on the axis lattice — the initial
 * coarse samples plus max_depth generations of interval bisection —
 * so the reachable design space is exactly the cross product of
 * per-axis lattices: with frontier = 0 ("refine everything") and an
 * exhaustive budget the search enumerates that whole grid and its
 * optimum equals brute force by construction, while the default
 * greedy frontier reaches the same optimum on well-behaved
 * objectives with a fraction of the simulations.
 *
 * Each round runs as one CachedJob on the caller's api::Session:
 * points are keyed and seeded by canonical spec string, so a
 * ResultCache makes repeated searches incremental and results are
 * bit-identical on 1 or N threads.
 */

#ifndef QMH_OPT_FRONTIER_HH
#define QMH_OPT_FRONTIER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "opt/cached_job.hh"

namespace qmh {
namespace opt {

/** One numeric interval the search may refine. */
struct FrontierAxis
{
    std::string key;  ///< spec key of kind Int, UInt or Real
    double lo = 0.0;
    double hi = 0.0;
    int coarse = 3;   ///< initial samples across [lo, hi] (>= 2)
};

/** Live search state, reported once per incorporated point. */
struct FrontierProgress
{
    std::size_t round = 0;        ///< 1-based refinement round
    std::size_t evaluated = 0;    ///< points incorporated, all rounds
    std::size_t round_done = 0;   ///< points incorporated this round
    std::size_t round_total = 0;  ///< points proposed this round
};

/** Search configuration. */
struct FrontierOptions
{
    std::string objective;    ///< result column to optimize
    bool maximize = true;
    int max_depth = 4;        ///< bisection generations per interval
    std::size_t budget = 256; ///< max unique points evaluated
    /** Top-ranked points refined per round; 0 = refine every point
     *  (exhaustive lattice enumeration under a generous budget). */
    std::size_t frontier = 3;
    /**
     * Streamed per incorporated point; return false to cancel the
     * search (the in-flight round's remaining points are abandoned
     * and the outcome ranks what was incorporated so far, which is
     * deterministic for a deterministic callback). Not part of the
     * search's identity: a pure observer changes nothing.
     */
    std::function<bool(const FrontierProgress &)> on_progress;
};

/** What the search found and what it cost. */
struct FrontierOutcome
{
    /** Every evaluated point (kind columns + "seed"), best first. */
    sweep::ResultTable table{{"spec", "seed"}};
    api::ExperimentSpec best;
    std::string best_key;           ///< canonical spec of best
    double best_objective = 0.0;    ///< raw objective value of best
    std::size_t evaluated = 0;      ///< unique points evaluated
    std::size_t simulated = 0;      ///< of those, engine executions
    std::size_t cached = 0;         ///< of those, cache replays
    std::size_t rounds = 0;
    std::size_t skipped_invalid = 0; ///< candidates failing validate()
    bool cancelled = false;          ///< on_progress stopped the search
};

/**
 * The full dyadic value lattice of @p axis: its coarse samples plus
 * @p max_depth generations of adjacent-pair midpoints, sorted.
 * Integer axes round every value and drop collisions. This is the
 * exact value universe frontierSearch() explores — a SpecGrid over
 * these values is the matching brute force.
 */
std::vector<double> frontierAxisLattice(const FrontierAxis &axis,
                                        bool integer_axis,
                                        int max_depth);

/** Canonical spec text for @p value on this axis. */
std::string frontierAxisValueText(double value, bool integer_axis);

/** True for Int/UInt spec keys; panics on unknown or non-numeric. */
bool frontierAxisIsInteger(const std::string &key);

/**
 * Static diagnostics for a search: unknown / non-numeric axis keys,
 * empty or inverted intervals, degenerate options, oversized coarse
 * grids or lattices, an objective the experiment kind does not emit,
 * or an initial grid with no valid point. Empty means
 * frontierSearch() will run. The no-valid-point check enumerates the
 * coarse grid the same way the search's first round will (both are
 * capped at 100k points), so CLI-style validate-then-run pays that
 * bounded enumeration twice by design.
 */
std::vector<std::string>
validateFrontier(const api::ExperimentSpec &base,
                 const std::vector<FrontierAxis> &axes,
                 const FrontierOptions &options);

/**
 * Run the adaptive search (panics on validateFrontier diagnostics;
 * call it first for recoverable errors). @p cache may be null, and
 * a store built for another base seed than @p session's is not
 * consulted.
 * Deterministic for a fixed (base spec, axes, options, base seed):
 * the same points are evaluated in the same order on any thread
 * count, and a warm cache changes only simulated/cached counts.
 * Rounds run as cancellable cached jobs: when a round would
 * overrun the point budget it is cut off mid-flight after exactly
 * the budgeted number of rows (in proposal order), instead of
 * simulating the whole round and discarding the excess.
 */
FrontierOutcome
frontierSearch(api::Session &session,
               const api::ExperimentSpec &base,
               const std::vector<FrontierAxis> &axes,
               const FrontierOptions &options,
               ResultCache *cache = nullptr);

} // namespace opt
} // namespace qmh

#endif // QMH_OPT_FRONTIER_HH
