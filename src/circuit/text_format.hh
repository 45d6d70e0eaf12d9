/**
 * @file
 * Text (assembly-like) serialization of logical programs.
 *
 * Format, one instruction per line:
 *
 *     # comment
 *     name   draper-adder-8
 *     qubits 32
 *     cnot q0 q8
 *     toffoli q0 q8 q16
 *     cphase 3 q1 q2
 *
 * Header directives (`name`, `qubits`) must precede instructions.
 */

#ifndef QMH_CIRCUIT_TEXT_FORMAT_HH
#define QMH_CIRCUIT_TEXT_FORMAT_HH

#include <iosfwd>
#include <string>

#include "program.hh"

namespace qmh {
namespace circuit {

/** Outcome of parsing. On failure `ok` is false and `error` explains. */
struct ParseResult
{
    bool ok = false;
    Program program;
    std::string error;
    int line = 0;
};

/** Serialize @p program to the text format. */
std::string writeText(const Program &program);

/** Serialize to a stream. */
void writeText(const Program &program, std::ostream &os);

/** Parse a program from text. Never throws; check the result. */
ParseResult parseText(const std::string &text);

} // namespace circuit
} // namespace qmh

#endif // QMH_CIRCUIT_TEXT_FORMAT_HH
