/**
 * @file
 * qmh_lint CLI: lint the given files/directories and report every
 * finding as file:line: [rule] message (or as a SARIF 2.1.0 document
 * with --format=sarif). Exit codes are distinct per failure class so
 * CI can tell a dirty tree from a broken invocation:
 *
 *   0  clean
 *   1  findings reported
 *   2  usage error (unknown option, bad value, no roots)
 *   3  I/O error (a root or explicit file could not be read)
 *
 *   qmh_lint src bench examples tests
 *   qmh_lint --format=sarif src > lint.sarif
 *   qmh_lint --list-rules
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "qmh_lint/lint.hh"

namespace {

void
usage(std::ostream &out)
{
    out << "usage: qmh_lint [options] <file-or-dir>...\n"
        << "Static analysis for the qmh determinism, typed-error and "
           "architecture contracts.\n"
        << "options:\n"
        << "  --list-rules        print every rule and exit\n"
        << "  --format=text|sarif output format (default text)\n"
        << "  --print-layers      print the built-in layer policy "
           "and exit\n"
        << "Suppress a finding with\n"
        << "  // qmh-lint: allow(<rule>): <one-line justification>\n"
        << "on the offending line or alone on the line above.\n";
}

/** Value of "--opt=value" when @p arg starts with "--opt=". */
bool
optValue(const char *arg, const char *name, std::string &value)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> roots;
    bool sarif = false;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        if (std::strcmp(argv[i], "--list-rules") == 0) {
            for (const auto &rule : qmh::lint::ruleNames())
                std::cout << rule << "\n    "
                          << qmh::lint::ruleDescription(rule) << "\n";
            return 0;
        }
        if (std::strcmp(argv[i], "--print-layers") == 0) {
            std::cout << qmh::lint::defaultLayerPolicy();
            return 0;
        }
        if (optValue(argv[i], "--format", value)) {
            if (value == "sarif") {
                sarif = true;
            } else if (value != "text") {
                std::cerr << "qmh_lint: unknown format '" << value
                          << "' (expected text or sarif)\n";
                return 2;
            }
            continue;
        }
        if (argv[i][0] == '-') {
            std::cerr << "qmh_lint: unknown option '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
        roots.emplace_back(argv[i]);
    }
    if (roots.empty()) {
        usage(std::cerr);
        return 2;
    }

    const auto report = qmh::lint::lintTree(roots);

    // An explicit root the engine could not read is an invocation
    // problem, not a lint finding: report it on its own exit code so
    // CI never mistakes a typo'd path for a clean tree.
    bool io_error = false;
    for (const auto &diagnostic : report.diagnostics)
        if (diagnostic.rule == "io-error")
            io_error = true;

    if (sarif) {
        std::cout << qmh::lint::toSarif(report) << "\n";
    } else {
        for (const auto &diagnostic : report.diagnostics)
            std::cout << diagnostic.format() << "\n";
    }
    std::cerr << "qmh_lint: " << report.diagnostics.size()
              << " finding(s) in " << report.files_scanned
              << " file(s)\n";
    if (io_error)
        return 3;
    return report.clean() ? 0 : 1;
}
