/**
 * @file
 * JSONL request/response protocol over a Session: the servable
 * backend behind examples/qmh_service.cpp.
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
 * rows: once reached the job is cancelled cooperatively and the done
 * record reports "cancelled":true. Any caller mistake — malformed
 * JSON, unknown op, a spec that fails validation — emits a structured
 * error record ({"type":"error","id":...,"code":...,"message":...,
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
 *    composition, or which client asked. This is the mode the
 *    experiment server's shared result cache memoizes (an
 *    index-seeded row is not reusable across requests), and it makes
 *    a server response byte-identical to a stdio run of the same
 *    request line.
 *
 * A {"op":"shutdown","id":...} request answers with an empty "done"
 * record and ends the serve loop — the line-mode twin of EOF, so a
 * remote client can end a server session the same way closing stdin
 * ends a stdio one.
 *
 * The record writers (recordAccepted/recordRow/recordError/
 * recordDone) are exposed so the socket server (src/server/) emits
 * bytes through the exact same formatters as the stdio loop; the two
 * transports cannot drift apart.
 */

#ifndef QMH_API_SERVICE_HH
#define QMH_API_SERVICE_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "api/outcome.hh"
#include "api/session.hh"
#include "api/spec.hh"
#include "common/json.hh"

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

/** parseServiceRequest over an already-parsed JSON document. */
[[nodiscard]] Outcome<ServiceRequest>
decodeServiceRequest(const json::Value &root);

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

/** Statistics of one runService loop. */
struct ServiceStats
{
    std::size_t requests = 0;  ///< well-formed requests served
    std::size_t errors = 0;    ///< error records emitted (any source)
    std::size_t rows = 0;      ///< row records streamed
};

/**
 * The wire records, one formatter per type, newline excluded. Every
 * byte a transport emits goes through these four functions — the
 * stdio loop below and the socket server share them, which is what
 * the cross-transport byte-identity tests pin.
 */
std::string recordAccepted(const std::string &id, std::size_t total,
                           const std::vector<std::string> &columns);
std::string recordRow(const std::string &id, std::size_t index,
                      const std::vector<std::string> &columns,
                      const std::vector<sweep::Cell> &cells);
std::string recordError(const std::string &id, const Error &error);
std::string recordDone(const std::string &id, std::size_t rows,
                       std::size_t total, bool cancelled);

/**
 * The explicit per-point seeds of @p request under its seed mode:
 * empty for Index (the session derives pointSeed itself), one
 * opt::specSeed per spec for Spec. @p session_base is used when the
 * request carries no seed override.
 */
std::vector<std::uint64_t>
requestSeeds(const ServiceRequest &request,
             std::uint64_t session_base);

/**
 * Run one request on @p session, streaming records to @p out and
 * accumulating row/error record counts into @p stats.
 */
void serveRequest(Session &session, const ServiceRequest &request,
                  std::ostream &out, ServiceStats &stats);

/**
 * Serve JSONL requests from @p in until EOF (blank lines ignored),
 * writing records to @p out. Errors are records, not exits.
 */
ServiceStats runService(Session &session, std::istream &in,
                        std::ostream &out);

} // namespace api
} // namespace qmh

#endif // QMH_API_SERVICE_HH
