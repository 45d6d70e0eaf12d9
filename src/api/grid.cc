#include "grid.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"

namespace qmh {
namespace api {

namespace {

/** @p a x @p b, saturating at SpecGrid::max_points + 1. */
std::size_t
boundedProduct(std::size_t a, std::size_t b)
{
    constexpr std::size_t over = SpecGrid::max_points + 1;
    if (b != 0 && a > over / b)
        return over;
    return std::min(a * b, over);
}

std::string
tooManyPoints()
{
    return "grid has more than " + std::to_string(SpecGrid::max_points) +
           " points";
}

} // namespace

void
SpecGrid::axis(std::string key, std::vector<std::string> values)
{
    axes.push_back({std::move(key), std::move(values)});
}

std::string
SpecGrid::addAxis(std::string_view text)
{
    const auto eq = text.find('=');
    if (eq == std::string_view::npos || eq == 0)
        return "axis '" + std::string(text) +
               "' is not key=v1,v2,...";
    Axis parsed;
    parsed.key = std::string(text.substr(0, eq));
    auto rest = text.substr(eq + 1);
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const auto value = rest.substr(0, comma);
        if (value.empty())
            return "axis '" + std::string(text) +
                   "' has an empty value";
        parsed.values.emplace_back(value);
        if (comma == std::string_view::npos)
            break;
        rest = rest.substr(comma + 1);
    }
    if (parsed.values.empty())
        return "axis '" + std::string(text) + "' has no values";
    for (const auto &ax : axes)
        if (ax.key == parsed.key)
            return "axis '" + parsed.key + "' is swept twice";
    if (boundedProduct(points(), parsed.values.size()) > max_points)
        return "axis '" + parsed.key + "': " + tooManyPoints();

    // Reject bad keys/values up front so CLI callers get the
    // diagnostic at parse time, not at expansion.
    ExperimentSpec scratch = base;
    for (const auto &value : parsed.values) {
        const auto error = specSet(scratch, parsed.key, value);
        if (!error.empty())
            return error;
    }
    axes.push_back(std::move(parsed));
    return "";
}

std::vector<std::string>
SpecGrid::validate() const
{
    std::vector<std::string> errors;
    std::set<std::string> seen, repeated;
    for (const auto &ax : axes) {
        if (!seen.insert(ax.key).second && repeated.insert(ax.key).second)
            errors.push_back("axis '" + ax.key + "' is swept twice");
        if (ax.values.empty()) {
            errors.push_back("axis '" + ax.key + "' has no values");
            continue;
        }
        ExperimentSpec scratch = base;
        for (const auto &value : ax.values) {
            const auto error = specSet(scratch, ax.key, value);
            if (!error.empty())
                errors.push_back(error);
        }
    }
    if (points() > max_points)
        errors.push_back(tooManyPoints());
    return errors;
}

std::size_t
SpecGrid::points() const
{
    std::size_t total = 1;
    for (const auto &ax : axes)
        total = boundedProduct(total, ax.values.size());
    return total;
}

std::vector<ExperimentSpec>
SpecGrid::expand() const
{
    const std::size_t total = points();
    if (total > max_points)
        // qmh-lint: allow(typed-errors): addAxis() and validate() reject an oversized grid — expanding one is a caller bug
        qmh_panic("SpecGrid::expand: ", tooManyPoints());
    std::vector<ExperimentSpec> specs;
    if (total == 0)
        return specs;
    specs.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        ExperimentSpec spec = base;
        // Mixed-radix decomposition: first axis slowest, last fastest.
        std::size_t stride = total;
        for (const auto &ax : axes) {
            stride /= ax.values.size();
            const std::size_t pick =
                (index / stride) % ax.values.size();
            const auto error =
                specSet(spec, ax.key, ax.values[pick]);
            if (!error.empty())
                // qmh-lint: allow(typed-errors): grid axes are validated at construction — a bad value here is a SpecGrid invariant bug
                qmh_panic("SpecGrid::expand: ", error);
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace api
} // namespace qmh
