// qmh_perfbench: one benchmark run.
//
//   qmh_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--pinned-digest HEX]
//
// W is sweep_shared, sweep_distinct or serve_mixed. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it are notes. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones (a traced run also runs the untraced phase, for the ledger).
// perfbench/run.py builds this program and runs it.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "api/spec.hh"
#include "bench.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "qmh_perfbench: %s\nusage: qmh_perfbench --workload "
                 "sweep_shared|sweep_distinct|serve_mixed --seed N "
                 "--seconds S --trace 0|1 [--pinned-digest HEX]\n",
                 why);
    std::exit(2);
}

perfbench::Options
parseOptions(int argc, char **argv)
{
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            const auto seed = qmh::api::parseUInt(value);
            if (!seed)
                usage("--seed takes an unsigned integer");
            options.seed = *seed;
        } else if (flag == "--seconds") {
            const auto seconds = qmh::api::parseUInt(value);
            if (!seconds || *seconds < 1 || *seconds > 600)
                usage("--seconds takes an integer in [1, 600]");
            options.seconds = static_cast<unsigned>(*seconds);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (flag == "--pinned-digest") {
            options.pinned_digest = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return options;
}

std::string
jsonNumber(double value)
{
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = parseOptions(argc, argv);
    perfbench::Report report;
    if (options.workload == "sweep_shared")
        report = perfbench::runSweep(options, false);
    else if (options.workload == "sweep_distinct")
        report = perfbench::runSweep(options, true);
    else if (options.workload == "serve_mixed")
        report = perfbench::runServe(options);
    else
        usage(("unknown workload " + options.workload).c_str());

    for (const auto &[name, metric] : report.metrics)
        if (!std::isfinite(metric.value))
            report.fail("metric " + name + " is not finite");
    for (const auto &note : report.notes)
        std::printf("%s\n", note.c_str());

    std::string line = "{\"correct\": ";
    line += report.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : report.metrics) {
        line += first ? "" : ", ";
        first = false;
        line += "\"" + name + "\": {\"value\": " +
                jsonNumber(std::isfinite(metric.value) ? metric.value : 0.0) +
                ", \"unit\": \"" + metric.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
