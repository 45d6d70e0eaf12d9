/**
 * @file
 * Scenario: work with the assembly-like circuit format.
 *
 * Generates a circuit from the qmh::api workload registry (any
 * registered generator: draper, ripple, modexp, qft, random), writes
 * it in the paper's instruction format, parses it back, and prints
 * gate statistics plus the parallelism profile the scheduler extracts
 * — the same pipeline the paper's cache simulator consumes.
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "api/workload.hh"
#include "circuit/dag.hh"
#include "cli_util.hh"
#include "circuit/text_format.hh"
#include "sched/scheduler.hh"

namespace {

void
printUsage(const char *prog)
{
    std::fprintf(stderr, "usage: %s [workload] [width] [file]\n",
                 prog);
    std::fprintf(stderr, "workloads:\n");
    for (const auto &generator : qmh::api::workloadRegistry())
        std::fprintf(stderr, "  %-8s %s\n", generator.name.c_str(),
                     generator.description.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qmh;

    const char *kind = argc > 1 ? argv[1] : "draper";
    const char *path = argc > 3 ? argv[3] : nullptr;

    api::ExperimentSpec spec;
    if (!api::specSet(spec, "workload", kind).empty() ||
        !api::findWorkload(spec.workload)) {
        std::fprintf(stderr, "unknown workload: %s\n", kind);
        printUsage(argv[0]);
        return 1;
    }
    spec.n = 32;
    if (argc > 2) {
        // Strict width parsing: garbage is an error, not zero.
        const auto n = cli::intArg(argv[2], 1, 4096);
        if (!n) {
            std::fprintf(stderr, "bad width: %s\n", argv[2]);
            printUsage(argv[0]);
            return 1;
        }
        spec.n = *n;
    }

    Random rng(1);
    const auto prog = api::buildWorkload(spec, rng).program;

    const auto text = circuit::writeText(prog);
    if (path) {
        std::ofstream out(path);
        out << text;
        std::printf("wrote %zu bytes to %s\n", text.size(), path);
    } else {
        // Print the first lines as a taste of the format.
        std::size_t pos = 0;
        for (int line = 0; line < 12 && pos != std::string::npos;
             ++line) {
            const auto next = text.find('\n', pos);
            std::printf("  %s\n",
                        text.substr(pos, next - pos).c_str());
            pos = next == std::string::npos ? next : next + 1;
        }
        std::printf("  ... (%zu instructions total)\n", prog.size());
    }

    const auto parsed = circuit::parseText(text);
    if (!parsed.ok) {
        std::fprintf(stderr, "round-trip failed: %s (line %d)\n",
                     parsed.error.c_str(), parsed.line);
        return 1;
    }

    std::printf("\ngate histogram:\n");
    for (const auto &[g, count] : parsed.program.gateHistogram())
        std::printf("  %-8s %llu\n", circuit::gateName(g),
                    static_cast<unsigned long long>(count));

    const circuit::DependencyGraph dag(parsed.program);
    std::printf("dependency depth: %u rounds, peak parallelism %u\n",
                dag.depth(), dag.maxParallelism());

    const sched::LatencyModel lat;
    const auto schedule = sched::roundSchedule(parsed.program, lat, 16);
    std::printf("on 16 compute blocks: %llu gate-steps, utilization "
                "%.0f%%\n",
                static_cast<unsigned long long>(schedule.makespan),
                100.0 * schedule.utilization());
    return 0;
}
