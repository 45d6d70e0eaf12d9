#include "frontier.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <unordered_set>

#include "api/prepared.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace qmh {
namespace opt {

namespace {

double
roundIfInteger(double v, bool integer_axis)
{
    return integer_axis ? static_cast<double>(std::llround(v)) : v;
}

/** Coarse samples: endpoints exact, interior linearly spaced. */
std::vector<double>
initialValues(const FrontierAxis &axis, bool integer_axis)
{
    std::vector<double> values;
    for (int t = 0; t < axis.coarse; ++t) {
        double v;
        if (t == 0)
            v = axis.lo;
        else if (t == axis.coarse - 1)
            v = axis.hi;
        else
            v = axis.lo + (axis.hi - axis.lo) * t / (axis.coarse - 1);
        values.push_back(roundIfInteger(v, integer_axis));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()),
                 values.end());
    return values;
}

/** One generation of adjacent-pair midpoints folded into @p values. */
void
refineOnce(std::vector<double> &values, bool integer_axis)
{
    std::vector<double> next;
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        const double a = values[i];
        const double b = values[i + 1];
        const double mid = roundIfInteger(a + (b - a) / 2.0,
                                          integer_axis);
        if (mid != a && mid != b)
            next.push_back(mid);
    }
    values.insert(values.end(), next.begin(), next.end());
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()),
                 values.end());
}

/** Lattice index of @p value; panics when off-lattice (all explored
 *  values are constructed from the lattice, so a miss is a bug). */
std::size_t
latticeIndex(const std::vector<double> &lattice, double value)
{
    const auto it =
        std::lower_bound(lattice.begin(), lattice.end(), value);
    if (it == lattice.end() || *it != value)
        qmh_panic("frontierSearch: value ", value,
                  " is not on the axis lattice");
    return static_cast<std::size_t>(it - lattice.begin());
}

struct AxisState
{
    FrontierAxis axis;
    bool integer = false;
    std::vector<double> lattice;       ///< full dyadic value universe
    std::vector<std::size_t> coarse;   ///< lattice indices of round 0
    std::set<std::size_t> seen;        ///< explored lattice indices
};

struct Candidate
{
    std::unique_ptr<api::Experiment> experiment;  ///< validated
    std::string key;                 ///< canonical spec string
    std::vector<std::size_t> coord;  ///< lattice index per axis
};

} // namespace

std::vector<double>
frontierAxisLattice(const FrontierAxis &axis, bool integer_axis,
                    int max_depth)
{
    auto values = initialValues(axis, integer_axis);
    for (int depth = 0; depth < max_depth; ++depth) {
        const std::size_t before = values.size();
        refineOnce(values, integer_axis);
        // Integer axes saturate once every gap is 1; further
        // generations would only re-sort the same values.
        if (values.size() == before)
            break;
    }
    return values;
}

std::string
frontierAxisValueText(double value, bool integer_axis)
{
    if (integer_axis)
        return std::to_string(std::llround(value));
    return formatDoubleShortest(value);
}

bool
frontierAxisIsInteger(const std::string &key)
{
    const auto kind = api::specKeyKind(key);
    if (!kind)
        qmh_panic("frontierAxisIsInteger: unknown spec key '", key,
                  "'");
    if (*kind == api::SpecKeyKind::Int ||
        *kind == api::SpecKeyKind::UInt)
        return true;
    if (*kind == api::SpecKeyKind::Real)
        return false;
    qmh_panic("frontierAxisIsInteger: key '", key,
              "' is not a numeric axis");
}

namespace {

/** Axis states (lattice, coarse indices, empty seen-set); the axis
 *  keys must already be known numeric. */
std::vector<AxisState>
buildAxisStates(const std::vector<FrontierAxis> &axes, int max_depth)
{
    std::vector<AxisState> states;
    for (const auto &axis : axes) {
        AxisState state;
        state.axis = axis;
        state.integer = frontierAxisIsInteger(axis.key);
        state.lattice =
            frontierAxisLattice(axis, state.integer, max_depth);
        for (const double v : initialValues(axis, state.integer))
            state.coarse.push_back(latticeIndex(state.lattice, v));
        states.push_back(std::move(state));
    }
    return states;
}

/** Hard ceiling on round-0 enumeration: every coarse point is built
 *  and validated even when skipped (skipped points do not consume
 *  budget), so the cross product must stay bounded no matter what
 *  the budget says. */
constexpr std::size_t max_coarse_points = 100000;

/** Hard ceiling on one axis's materialized lattice: real axes grow
 *  as (coarse-1)*2^depth + 1, so otherwise-accepted flag values
 *  could demand gigabytes before the first simulation. */
constexpr std::uint64_t max_axis_lattice = 262145;  // 64 * 2^12 + 1

/** Upper bound on an axis's lattice size without building it. */
std::uint64_t
axisLatticeBound(const FrontierAxis &axis, bool integer_axis,
                 int max_depth)
{
    // (coarse-1) * 2^depth + 1; depth <= 20 and coarse <= 65 keep
    // this well inside 64 bits.
    std::uint64_t bound =
        ((static_cast<std::uint64_t>(axis.coarse) - 1)
         << std::min(max_depth, 40)) +
        1;
    if (integer_axis) {
        const double span =
            std::floor(axis.hi) - std::ceil(axis.lo) + 1.0;
        if (span < static_cast<double>(bound))
            bound = span <= 1.0 ? 1
                                : static_cast<std::uint64_t>(span);
    }
    return bound;
}

/** Coarse cross-product size, saturating at max_coarse_points + 1. */
std::size_t
coarseGridPoints(const std::vector<AxisState> &states)
{
    std::size_t total = 1;
    for (const auto &state : states) {
        if (total > (max_coarse_points + 1) / state.coarse.size())
            return max_coarse_points + 1;
        total *= state.coarse.size();
    }
    return total;
}

/** Every diagnostic that holds before the axis states are built. */
std::vector<std::string>
staticFrontierErrors(const api::ExperimentSpec &base,
                     const std::vector<std::string> &columns,
                     const std::vector<FrontierAxis> &axes,
                     const FrontierOptions &options)
{
    std::vector<std::string> errors;
    if (axes.empty())
        errors.push_back("frontier: at least one --axis is required");
    std::unordered_set<std::string> axis_keys;
    for (const auto &axis : axes) {
        const auto kind = api::specKeyKind(axis.key);
        if (!kind) {
            errors.push_back("frontier: unknown axis key '" +
                             axis.key + "'");
            continue;
        }
        if (*kind != api::SpecKeyKind::Int &&
            *kind != api::SpecKeyKind::UInt &&
            *kind != api::SpecKeyKind::Real) {
            errors.push_back("frontier: axis '" + axis.key +
                             "' is not numeric — only Int/UInt/Real "
                             "keys can be refined");
            continue;
        }
        if (!(axis.lo < axis.hi))
            errors.push_back("frontier: axis '" + axis.key +
                             "' needs lo < hi");
        if (axis.coarse < 2 || axis.coarse > 65)
            errors.push_back("frontier: axis '" + axis.key +
                             "' coarse must be in [2, 65]");
        else if (axisLatticeBound(axis,
                                  *kind != api::SpecKeyKind::Real,
                                  std::clamp(options.max_depth, 0,
                                             20)) > max_axis_lattice)
            errors.push_back(
                "frontier: axis '" + axis.key +
                "' would materialize more than " +
                std::to_string(max_axis_lattice) +
                " lattice values — lower --depth or coarse");
        if (!axis_keys.insert(axis.key).second)
            errors.push_back("frontier: axis '" + axis.key +
                             "' given twice");
    }
    if (options.budget < 1)
        errors.push_back("frontier: budget must be >= 1");
    if (options.max_depth < 0 || options.max_depth > 20)
        errors.push_back("frontier: depth must be in [0, 20]");
    if (options.objective.empty()) {
        errors.push_back("frontier: an objective column is required");
    } else if (std::find(columns.begin(), columns.end(),
                         options.objective) == columns.end()) {
        errors.push_back("frontier: " +
                         std::string(api::kindName(base.kind)) +
                         " experiments have no column '" +
                         options.objective + "'");
    } else if (options.objective == "spec") {
        errors.push_back("frontier: 'spec' is not a numeric objective");
    }
    return errors;
}

/** The typed error of a search that cannot start. */
api::Error
invalidSearch(std::vector<std::string> details)
{
    return {api::ErrorCode::InvalidSpec,
            std::to_string(details.size()) +
                " error(s) in the frontier search configuration",
            std::move(details)};
}

} // namespace

api::Outcome<FrontierOutcome>
frontierSearch(api::Session &session,
               const api::ExperimentSpec &base,
               const std::vector<FrontierAxis> &axes,
               const FrontierOptions &options, ResultCache *cache)
{
    const auto columns = api::makeExperiment(base)->columns();
    if (auto errors = staticFrontierErrors(base, columns, axes, options);
        !errors.empty())
        return invalidSearch(std::move(errors));
    auto states = buildAxisStates(axes, options.max_depth);
    const std::size_t coarse_points = coarseGridPoints(states);
    if (coarse_points > max_coarse_points)
        return invalidSearch({"frontier: the coarse grid exceeds " +
                              std::to_string(max_coarse_points) +
                              " points — lower the axis coarse counts"});

    const std::size_t objective_col = static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), options.objective) -
        columns.begin());
    auto labelled = columns;
    labelled.emplace_back("seed");
    FrontierOutcome outcome;
    outcome.table = sweep::ResultTable(labelled);

    // Each proposed point is checked and counted once; the
    // experiment validated here is the one its round runs. A skipped
    // point's values count as explored, so refinement bisects toward
    // it and finds the valid values between.
    std::set<std::vector<std::size_t>> known;
    std::vector<Candidate> batch;
    const auto propose = [&](const std::vector<std::size_t> &coord) {
        if (!known.insert(coord).second)
            return;
        auto spec = base;
        bool valid = true;
        for (std::size_t a = 0; valid && a < states.size(); ++a) {
            const auto &state = states[a];
            valid = api::specSet(spec, state.axis.key,
                                 frontierAxisValueText(
                                     state.lattice[coord[a]],
                                     state.integer))
                        .empty();
        }
        auto experiment = valid ? api::makeExperiment(spec) : nullptr;
        if (!experiment || !experiment->validate().empty()) {
            ++outcome.skipped_invalid;
            for (std::size_t a = 0; a < states.size(); ++a)
                states[a].seen.insert(coord[a]);
            return;
        }
        batch.push_back({std::move(experiment), api::printSpec(spec),
                         coord});
    };

    // Round 0: the coarse grid in grid order, first axis slowest.
    // Skipped points do not consume budget.
    std::vector<std::size_t> coord(states.size());
    for (std::size_t index = 0;
         index < coarse_points && batch.size() < options.budget; ++index) {
        std::size_t stride = coarse_points;
        for (std::size_t a = 0; a < states.size(); ++a) {
            const auto &coarse = states[a].coarse;
            stride /= coarse.size();
            coord[a] = coarse[(index / stride) % coarse.size()];
        }
        propose(coord);
    }
    if (batch.empty())
        return invalidSearch({"frontier: no point of the coarse grid "
                              "passes validation — adjust the axis "
                              "ranges or the base spec"});

    struct Eval
    {
        std::string key;
        std::vector<std::size_t> coord;
        double raw = 0.0;    ///< objective as reported
        double score = 0.0;  ///< sign-adjusted, NaN mapped to -inf
    };
    // Best first; ties break on the canonical spec string so the
    // frontier is deterministic.
    const auto ranks_before = [](const Eval &a, const Eval &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.key < b.key;
    };
    std::vector<Eval> evals;

    while (!batch.empty()) {
        ++outcome.rounds;
        std::vector<std::unique_ptr<api::Experiment>> experiments;
        experiments.reserve(batch.size());
        for (auto &candidate : batch)
            experiments.push_back(std::move(candidate.experiment));
        api::sharePreparedWorkloads(experiments);

        // Stream the round through a cancellable cached job: it hands
        // out at most the budget's remainder (proposal order, so the
        // cut is deterministic on any thread count), and the caller's
        // observer can end it after any row.
        CachedJob job(std::move(experiments), api::SeedMode::Spec,
                      session.baseSeed(), cache,
                      options.budget - evals.size());
        job.start(session);
        bool user_cancelled = false;
        for (std::size_t j = 0; auto row = job.next(); ++j) {
            Eval eval;
            eval.key = std::move(batch[j].key);
            eval.coord = std::move(batch[j].coord);
            const auto number = (*row)[objective_col].asNumber();
            eval.raw = number ? *number
                              : std::numeric_limits<double>::quiet_NaN();
            eval.score = number && !std::isnan(*number)
                             ? (options.maximize ? *number : -*number)
                             : -std::numeric_limits<double>::infinity();
            for (std::size_t a = 0; a < states.size(); ++a)
                states[a].seen.insert(eval.coord[a]);
            outcome.table.addRow(std::move(*row));
            evals.push_back(std::move(eval));
            if (options.on_progress &&
                !options.on_progress({outcome.rounds, evals.size(),
                                      j + 1, batch.size()})) {
                user_cancelled = true;
                job.cancel();
                break;
            }
        }
        auto swept = job.wait();
        if (swept.failure)
            return std::move(*swept.failure);
        outcome.simulated += swept.rows - swept.replayed;
        outcome.cached += swept.replayed;

        if (user_cancelled) {
            outcome.cancelled = true;
            break;
        }
        if (evals.size() >= options.budget)
            break;

        std::vector<std::size_t> order(evals.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return ranks_before(evals[a], evals[b]);
                  });
        const std::size_t n_pick =
            options.frontier == 0
                ? order.size()
                : std::min(options.frontier, order.size());

        // Propose, per frontier point and axis, the adjacent explored
        // values (pattern-search moves) and the lattice midpoints
        // toward them (refinement); everything else stays fixed. The
        // batch is not trimmed to the budget here — the next round's
        // job limit cuts it at exactly the remainder (the job neither
        // submits nor simulates past its limit), which
        // evaluates the same prefix in the same order.
        batch.clear();
        for (std::size_t p = 0; p < n_pick; ++p) {
            const auto &eval = evals[order[p]];
            for (std::size_t a = 0; a < states.size(); ++a) {
                const auto &seen = states[a].seen;
                const auto here = seen.find(eval.coord[a]);
                std::vector<std::size_t> proposals;
                if (here != seen.begin()) {
                    const std::size_t prev = *std::prev(here);
                    proposals.push_back(prev);
                    if (eval.coord[a] - prev >= 2)
                        proposals.push_back(
                            prev + (eval.coord[a] - prev) / 2);
                }
                if (const auto next = std::next(here);
                    next != seen.end()) {
                    if (*next - eval.coord[a] >= 2)
                        proposals.push_back(
                            eval.coord[a] +
                            (*next - eval.coord[a]) / 2);
                    proposals.push_back(*next);
                }
                for (const std::size_t q : proposals) {
                    coord = eval.coord;
                    coord[a] = q;
                    propose(coord);
                }
            }
        }
    }

    outcome.evaluated = evals.size();
    if (const auto best = std::min_element(evals.begin(), evals.end(),
                                           ranks_before);
        best != evals.end()) {
        outcome.best_key = best->key;
        outcome.best_objective = best->raw;
    }
    outcome.table.sortRowsByColumn(objective_col, options.maximize);
    return outcome;
}

} // namespace opt
} // namespace qmh
