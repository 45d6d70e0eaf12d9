/**
 * @file
 * Generic design-space grid over ExperimentSpecs.
 *
 * SpecGrid expands axis overrides on *any* spec: an axis is a
 * spec key plus the textual values to sweep it over, applied through
 * the shared key=value machinery. The cross product preserves axis
 * declaration order (first axis slowest, last fastest), so point
 * indices — and therefore the per-point RNG seeds of a Session job —
 * are a pure function of the grid. A grid names each key once and
 * holds at most max_points points: addAxis() and validate() reject a
 * repeated key and a larger grid.
 */

#ifndef QMH_API_GRID_HH
#define QMH_API_GRID_HH

#include <string>
#include <vector>

#include "api/spec.hh"

namespace qmh {
namespace api {

/** Cartesian product of axis overrides over a base spec. */
struct SpecGrid
{
    /** One swept key and its values (textual, as in a spec). */
    struct Axis
    {
        std::string key;
        std::vector<std::string> values;
    };

    /** Most points a grid may hold (a fixed bound, not an option). */
    static constexpr std::size_t max_points = 1'000'000;

    ExperimentSpec base;
    std::vector<Axis> axes;

    /** Append an axis (declaration order = expansion order). */
    void axis(std::string key, std::vector<std::string> values);

    /**
     * Parse an axis in CLI form, `key=v1,v2,v3`. Returns the empty
     * string and appends the axis on success, a diagnostic otherwise
     * (unknown key, empty value list, malformed value, a key already
     * swept, a grid growing past max_points).
     */
    std::string addAxis(std::string_view text);

    /**
     * Check every axis value against the base spec without expanding,
     * and the grid against a repeated key and max_points; one
     * diagnostic per problem, empty = ok.
     */
    std::vector<std::string> validate() const;

    /** Number of points the expansion produces, saturating at
     * max_points + 1. */
    std::size_t points() const;

    /**
     * Expand the cross product into concrete specs. Panics on an
     * invalid key or value or a grid over max_points (run validate()
     * first for recoverable diagnostics); an axis with no values
     * contributes nothing.
     */
    std::vector<ExperimentSpec> expand() const;
};

} // namespace api
} // namespace qmh

#endif // QMH_API_GRID_HH
