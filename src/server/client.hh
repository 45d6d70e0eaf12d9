/**
 * @file
 * Blocking lockstep client for the experiment server: send one
 * request line, read records until the protocol says the request is
 * over. Used by the tests (byte-diffing server responses against
 * stdio runs) and by `qmh_service --connect`.
 *
 * Termination follows the api/service.hh framing rule: a request
 * ends at its "done" record, or at an "error" record that was not
 * preceded by a matching "accepted" (a rejected request). Records
 * are returned as raw lines, newline stripped and nothing else
 * touched — byte fidelity is the point.
 */

#ifndef QMH_SERVER_CLIENT_HH
#define QMH_SERVER_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/outcome.hh"
#include "common/json.hh"
#include "server/socket.hh"

namespace qmh {
namespace server {

class Client
{
  public:
    /** Connect to @p host:@p port (Unavailable on refusal). */
    static api::Outcome<Client> connect(const std::string &host,
                                        std::uint16_t port);

    /**
     * Send @p line (newline appended if missing) and collect the
     * response records. @p on_record, when set, sees each record as
     * it arrives (streaming display). Unavailable when the server
     * goes away mid-request.
     */
    api::Outcome<std::vector<std::string>>
    request(const std::string &line,
            const std::function<void(const std::string &)>
                &on_record = {});

    /**
     * Convenience: {"op":"shutdown"} with @p id; the server stops
     * once the confirming done record arrives.
     */
    api::Outcome<std::vector<std::string>>
    shutdownServer(const std::string &id = "shutdown");

  private:
    explicit Client(Fd socket) : _socket(std::move(socket)) {}

    /** Next record line (blocking); Unavailable on EOF/error. */
    api::Outcome<std::string> nextRecord();

    Fd _socket;
    json::LineSplitter _splitter;
};

} // namespace server
} // namespace qmh

#endif // QMH_SERVER_CLIENT_HH
