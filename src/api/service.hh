/**
 * @file
 * JSONL request/response protocol: its request decoder and its four
 * record writers. Both transports serve it through the same request
 * steps (src/server/connection.hh): server::runService on stdio
 * (examples/qmh_service.cpp), server::Connection over TCP.
 *
 * One request per input line, one JSON record per output line:
 *
 *   -> {"op":"sweep","id":"r1","specs":["experiment=cache n=64",
 *       "experiment=cache n=128"],"seed":7,"limit":10}
 *   <- {"type":"accepted","id":"r1","total":2,"columns":[...]}
 *   <- {"type":"row","id":"r1","index":0,"cells":{...}}
 *   <- {"type":"row","id":"r1","index":1,"cells":{...}}
 *   <- {"type":"done","id":"r1","rows":2,"total":2,
 *       "cancelled":false}
 *
 * Rows stream in index order as points complete, so a slow sweep
 * produces output long before it finishes. "limit" caps the streamed
 * rows: points past it never run, and the done record reports
 * "cancelled":true. Any caller mistake — malformed JSON, unknown op,
 * a spec that fails validation — emits a structured error record
 * ({"type":"error","id":...,"code":...,"message":...,
 * "details":[...]}) and the loop keeps serving; the process never
 * aborts on bad input.
 *
 * Framing rule: a request that was *accepted* always terminates with
 * a "done" record (an execution failure emits "error" and then
 * "done"); a request rejected before acceptance terminates with its
 * "error" record alone. Clients should treat "done", and "error"
 * not preceded by a matching "accepted", as end-of-request.
 *
 * Determinism: "seed" pins the job's base seed, so two identical
 * requests stream byte-identical row records regardless of thread
 * count. "seed_mode" picks how per-point streams derive from it:
 *
 *  - "index" (default) — sweep::pointSeed(base, position in the
 *    request), the historical contract: a row depends on where it
 *    sits in the spec list;
 *  - "spec" — opt::specSeed(base, canonical spec string): a row is a
 *    function of the spec alone, independent of list position, batch
 *    composition, or which client asked. Equal specs in one request
 *    run once. This is the mode the experiment server's shared result
 *    cache memoizes (an index-seeded row is not reusable across
 *    requests), and it makes a server response byte-identical to a
 *    stdio run of the same request line.
 *
 * A {"op":"shutdown","id":...} request answers with an empty "done"
 * record and ends the serve loop — the line-mode twin of EOF, so a
 * remote client can end a server session the same way closing stdin
 * ends a stdio one.
 */

#ifndef QMH_API_SERVICE_HH
#define QMH_API_SERVICE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/outcome.hh"
#include "api/spec.hh"
#include "sweep/emit.hh"

namespace qmh {
namespace api {

/** Operations the protocol serves. */
enum class ServiceOp {
    Sweep,    ///< run specs, stream rows
    Shutdown  ///< end the serve loop (line-mode EOF)
};

/** Per-point seed derivation for a sweep request. */
enum class SeedMode {
    Index,  ///< sweep::pointSeed(base, request position) — default
    Spec    ///< opt::specSeed(base, canonical spec) — cacheable rows
};

/** One decoded request. */
struct ServiceRequest
{
    ServiceOp op = ServiceOp::Sweep;
    std::string id;                     ///< echoed in every record
    std::vector<ExperimentSpec> specs;  ///< points, in request order
    std::optional<std::uint64_t> seed;  ///< base-seed override
    SeedMode seed_mode = SeedMode::Index;
    std::size_t limit = 0;              ///< max rows streamed; 0 = all
};

/**
 * Decode one request line. Typed errors (never a panic): BadRequest
 * for malformed JSON / wrong field shapes / unknown op, InvalidSpec
 * (one detail per diagnostic) for specs that fail to parse. Spec
 * *validation* (ranges, workload existence) happens at submit time.
 */
[[nodiscard]] Outcome<ServiceRequest>
parseServiceRequest(const std::string &line);

/** One input line of a serve loop, decoded. */
struct ServiceLine
{
    /** The line's "id" when it is a string: a rejected request's
     *  error record still names the job it answers. */
    std::string id;
    Outcome<ServiceRequest> request;
};

/**
 * The serve loops' line step, shared by stdio and the socket server:
 * nullopt for a blank line (skipped), else the decoded request or the
 * error its error record carries (parseServiceRequest's errors, the
 * JSON parsed once).
 */
std::optional<ServiceLine> decodeServiceLine(const std::string &line);

/**
 * The wire records, one formatter per type, newline excluded. Every
 * byte the serve loops emit goes through these four functions.
 */
std::string recordAccepted(const std::string &id, std::size_t total,
                           const std::vector<std::string> &columns);
std::string recordRow(const std::string &id, std::size_t index,
                      const std::vector<std::string> &columns,
                      const std::vector<sweep::Cell> &cells);
std::string recordError(const std::string &id, const Error &error);
std::string recordDone(const std::string &id, std::size_t rows,
                       std::size_t total, bool cancelled);

} // namespace api
} // namespace qmh

#endif // QMH_API_SERVICE_HH
