#include "workload.hh"

#include <cmath>
#include <stdexcept>

#include "gen/draper.hh"
#include "gen/qft.hh"
#include "gen/random_circuit.hh"
#include "gen/ripple.hh"

namespace qmh {
namespace api {

namespace {

/** Cacheable mask over the two n-bit data registers of an adder. */
std::vector<bool>
adderDataMask(const gen::AdderLayout &layout, bool mask_data)
{
    if (!mask_data)
        return {};
    std::vector<bool> mask(
        static_cast<std::size_t>(layout.total_qubits), false);
    for (int i = 0; i < 2 * layout.bits; ++i)
        mask[static_cast<std::size_t>(i)] = true;
    return mask;
}

/** Adders and the QFT need a register of at least one qubit. */
std::vector<std::string>
needsWidth(const ExperimentSpec &spec)
{
    if (spec.n >= 1)
        return {};
    return {"workload " + spec.workload + " needs n >= 1 (got " +
            std::to_string(spec.n) + ")"};
}

/**
 * gen::randomMixed picks up to three distinct operands per gate; the
 * gate bound keeps one point's event-driven cost in check.
 */
std::vector<std::string>
randomPreconditions(const ExperimentSpec &spec)
{
    std::vector<std::string> errors;
    if (spec.n < 3)
        errors.push_back("workload random needs n >= 3 (got " +
                         std::to_string(spec.n) + ")");
    if (spec.gates < 0 || spec.gates > 1000000)
        errors.push_back("workload random needs gates in [0, 1000000] "
                         "(got " + std::to_string(spec.gates) + ")");
    return errors;
}

Workload
buildDraper(const ExperimentSpec &spec, Random &)
{
    Workload w;
    gen::AdderLayout layout;
    w.program = gen::draperAdder(spec.n, true, &layout,
                                 gen::UncomputeMode::CarriesLeftDirty);
    w.cacheable = adderDataMask(layout, spec.mask_data);
    w.pe_qubits = adderPeQubits(spec.n);
    return w;
}

Workload
buildRipple(const ExperimentSpec &spec, Random &)
{
    Workload w;
    gen::AdderLayout layout;
    w.program = gen::rippleAdder(spec.n, true, &layout);
    w.cacheable = adderDataMask(layout, spec.mask_data);
    w.pe_qubits = adderPeQubits(spec.n);
    return w;
}

Workload
buildModExp(const ExperimentSpec &spec, Random &)
{
    // Steady-state modular exponentiation at circuit granularity:
    // `reps` back-to-back additions on the same registers, the reuse
    // pattern the warm-start cache measurements model.
    Workload w;
    gen::AdderLayout layout;
    const auto adder =
        gen::draperAdder(spec.n, true, &layout,
                         gen::UncomputeMode::CarriesLeftDirty);
    circuit::Program repeated("modexp" + std::to_string(spec.n),
                              layout.total_qubits);
    for (int rep = 0; rep < spec.reps; ++rep)
        for (std::size_t i = 0; i < adder.size(); ++i)
            repeated.append(adder[i]);
    w.program = std::move(repeated);
    w.cacheable = adderDataMask(layout, spec.mask_data);
    w.pe_qubits = adderPeQubits(spec.n);
    return w;
}

Workload
buildQft(const ExperimentSpec &spec, Random &)
{
    Workload w;
    w.program = gen::qft(spec.n, true);
    w.pe_qubits = static_cast<unsigned>(spec.n);
    return w;
}

Workload
buildRandom(const ExperimentSpec &spec, Random &rng)
{
    Workload w;
    w.program = gen::randomMixed(spec.n, spec.gates, rng);
    w.pe_qubits = static_cast<unsigned>(spec.n);
    return w;
}

const std::vector<WorkloadGenerator> registry = {
    {"draper", "logarithmic-depth carry-lookahead adder (paper core)",
     {"mask_data"}, needsWidth, buildDraper},
    {"ripple", "linear-depth ripple-carry adder (baseline)",
     {"mask_data"}, needsWidth, buildRipple},
    {"modexp", "repeated Draper additions (steady-state mod-exp)",
     {"reps", "mask_data"}, needsWidth, buildModExp},
    {"qft", "quantum Fourier transform with bit-reversal swaps", {},
     needsWidth, buildQft},
    {"random", "random mixed logical circuit (seeded per point)",
     {"gates"}, randomPreconditions, buildRandom, true},
};

} // namespace

const std::vector<WorkloadGenerator> &
workloadRegistry()
{
    return registry;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &generator : registry)
            out.push_back(generator.name);
        return out;
    }();
    return names;
}

const WorkloadGenerator *
findWorkload(std::string_view name)
{
    for (const auto &generator : registry)
        if (generator.name == name)
            return &generator;
    return nullptr;
}

std::vector<std::string>
workloadDiagnostics(const ExperimentSpec &spec)
{
    const auto *generator = findWorkload(spec.workload);
    if (!generator)
        return {unknownNameDiagnostic("workload", spec.workload,
                                      workloadNames())};
    return generator->preconditions(spec);
}

Workload
buildWorkload(const ExperimentSpec &spec, Random &rng)
{
    if (const auto errors = workloadDiagnostics(spec); !errors.empty())
        // qmh-lint: allow(typed-errors): unreachable post-validation — validate() reports the same diagnostics as InvalidSpec; a Session turns this throw into ExecutionFailed, never an exit
        throw std::invalid_argument("buildWorkload: " + errors.front());
    return findWorkload(spec.workload)->build(spec, rng);
}

unsigned
adderPeQubits(int n_bits)
{
    // Table-4 anchor points: blocks available to an n-bit adder.
    switch (n_bits) {
      case 32:   return 9 * 9;
      case 64:   return 9 * 16;
      case 128:  return 9 * 25;
      case 256:  return 9 * 49;
      case 512:  return 9 * 81;
      case 1024: return 9 * 121;
      default: {
          // Off-table widths: the table's side lengths grow like
          // ~0.35 * sqrt(n); round to the nearest square grid.
          const double side = std::max(
              2.0, std::round(0.35 * std::sqrt(
                                  static_cast<double>(n_bits))));
          return static_cast<unsigned>(9.0 * side * side);
      }
    }
}

} // namespace api
} // namespace qmh
