/**
 * @file
 * Registry of named workload generators.
 *
 * A workload is a generated logical circuit plus the metadata the
 * experiments need to interpret it: which qubits are architectural
 * data (cacheable across the memory hierarchy, vs compute-block-local
 * scratch) and the processing-element count used to auto-size caches.
 * Adding a workload is one registry entry; every spec-driven CLI,
 * bench and sweep picks it up by name.
 */

#ifndef QMH_API_WORKLOAD_HH
#define QMH_API_WORKLOAD_HH

#include <string>
#include <vector>

#include "api/spec.hh"
#include "circuit/workload.hh"
#include "common/random.hh"

namespace qmh {
namespace api {

/**
 * A generated workload with its architectural metadata. The struct
 * itself lives at the circuit layer (circuit/workload.hh) so engines
 * below the facade can consume one without depending upward on api.
 */
using Workload = circuit::Workload;

/** One named generator. */
struct WorkloadGenerator
{
    std::string name;
    std::string description;
    /**
     * Spec keys the generator reads besides `workload` and `n`. A kind
     * that reads `workload` reads these too, for this generator only:
     * setting one another generator reads is an InvalidSpec.
     */
    std::vector<std::string> keys;
    /**
     * The generator's preconditions on the spec: one diagnostic per
     * violated one, empty when build() can run. The single source of
     * truth for both validate() and every build.
     */
    std::vector<std::string> (*preconditions)(const ExperimentSpec &spec);
    Workload (*build)(const ExperimentSpec &spec, Random &rng);
    /**
     * True when build() draws from the point's rng, so two points
     * with equal generator inputs still get different circuits; such
     * workloads are never shared between points.
     */
    bool seeded = false;
};

/** All registered generators, in registration order. */
const std::vector<WorkloadGenerator> &workloadRegistry();

/** Names of every registered generator, in registration order. */
const std::vector<std::string> &workloadNames();

/** Lookup by name; nullptr on unknown. */
const WorkloadGenerator *findWorkload(std::string_view name);

/**
 * Diagnostics for building @p spec's workload: an unknown generator
 * name, or the named generator's violated preconditions. Empty =
 * buildable.
 */
std::vector<std::string> workloadDiagnostics(const ExperimentSpec &spec);

/**
 * Build the workload named by @p spec.workload. Checks
 * workloadDiagnostics() first and throws std::invalid_argument on a
 * violation, so an unvalidated spec fails its point (a Session reports
 * ExecutionFailed) instead of reaching a generator's fatal check;
 * validate the spec first for the typed InvalidSpec diagnostic.
 */
Workload buildWorkload(const ExperimentSpec &spec, Random &rng);

/**
 * Paper-calibrated processing-element qubit count for an n-bit adder
 * workload: 9 logical qubits per compute block over the Table-4 block
 * counts (interpolated geometrically off the table's sizes).
 */
unsigned adderPeQubits(int n_bits);

} // namespace api
} // namespace qmh

#endif // QMH_API_WORKLOAD_HH
