/**
 * @file
 * Scenario: explore the quantum cache design space (paper Fig. 7).
 *
 * Builds one qmh::api cache ExperimentSpec, sweeps fetch policy,
 * capacity and warm/cold start over it with a SpecGrid, and prints
 * hit rates and transfer traffic so a designer can size the level-1
 * cache and transfer network. Extra `key=value` arguments override
 * the base spec (e.g. `workload=qft`, `mask_data=0`).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "cli_util.hh"

int
main(int argc, char **argv)
{
    using namespace qmh;

    std::vector<std::string> overrides = {"experiment=cache",
                                          "workload=draper"};
    if (argc > 1) {
        // First positional argument: the adder width (strict parse —
        // garbage is an error, not silently zero).
        const auto n = cli::intArg(argv[1], 8, 4096);
        if (!n) {
            std::fprintf(stderr,
                         "usage: %s [adder-width 8..4096] "
                         "[key=value ...]\n",
                         argv[0]);
            return 1;
        }
        overrides.push_back("n=" + std::to_string(*n));
    } else {
        overrides.push_back("n=256");
    }
    for (int i = 2; i < argc; ++i)
        overrides.emplace_back(argv[i]);

    const auto parsed = api::parseSpecTokens(overrides);
    if (!parsed.ok()) {
        for (const auto &error : parsed.errors)
            std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }

    api::SpecGrid grid;
    grid.base = parsed.spec;
    grid.axis("capacity_x", {"0.25", "0.5", "0.75", "1"});
    grid.axis("policy", {"inorder", "optimized"});
    grid.axis("warm", {"0", "1"});

    const auto specs = cli::expandGrid(grid);
    if (!specs)
        return 1;
    const auto table = cli::runTable(*specs);
    if (!table)
        return 1;
    std::printf("=== cache design space: %s (%zu points) ===\n",
                api::printSpec(parsed.spec).c_str(), specs->size());
    sweep::toAsciiTable(*table, table->rows(), {"spec", "seed"})
        .print(std::cout);
    std::printf("\nEach miss is one code transfer between memory (L2) "
                "and cache (L1);\nsize the transfer network for the "
                "optimized-warm miss rate.\n");
    return 0;
}
