#include "client.hh"

#include <sys/socket.h>

#include "sweep/emit.hh"

namespace qmh {
namespace server {

namespace {

api::Error
unavailable(std::string message)
{
    return api::Error{api::ErrorCode::Unavailable,
                      std::move(message),
                      {}};
}

} // namespace

api::Outcome<Client>
Client::connect(const std::string &host, std::uint16_t port)
{
    auto socket = connectTcp(host, port);
    if (!socket.ok())
        return socket.error();
    return Client(std::move(socket).value());
}

api::Outcome<std::string>
Client::nextRecord()
{
    for (;;) {
        if (auto line = _splitter.next()) {
            if (line->oversized)
                return unavailable(
                    "server sent an oversized record");
            return std::move(line->text);
        }
        char buffer[16 * 1024];
        // The socket is blocking: recv waits for the server.
        const auto got =
            recvSome(_socket.get(), buffer, sizeof buffer);
        if (got.status == IoStatus::Closed) {
            if (auto tail = _splitter.finish();
                tail && !tail->oversized && !tail->text.empty())
                return std::move(tail->text);
            return unavailable(
                "server closed the connection mid-request");
        }
        _splitter.feed(std::string_view(buffer, got.bytes));
    }
}

api::Outcome<std::vector<std::string>>
Client::request(
    const std::string &line,
    const std::function<void(const std::string &)> &on_record)
{
    std::string wire = line;
    if (wire.empty() || wire.back() != '\n')
        wire.push_back('\n');
    std::size_t sent = 0;
    while (sent < wire.size()) {
        const auto put = sendSome(_socket.get(), wire.data() + sent,
                                  wire.size() - sent);
        if (put.status != IoStatus::Ready || put.bytes == 0)
            return unavailable("cannot send the request");
        sent += put.bytes;
    }

    // A blank request line answers with nothing at all; waiting for
    // a record would hang forever.
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return std::vector<std::string>{};

    std::vector<std::string> records;
    bool accepted = false;
    for (;;) {
        auto record = nextRecord();
        if (!record.ok())
            return record.error();
        // Only the framing field is read; the record stays raw.
        const auto type = json::memberString(record.value(), "type");
        if (on_record)
            on_record(record.value());
        records.push_back(std::move(record).value());
        if (type == "accepted")
            accepted = true;
        else if (type == "done")
            return records;
        else if (type == "error" && !accepted)
            return records; // rejected before acceptance: terminal
    }
}

api::Outcome<std::vector<std::string>>
Client::shutdownServer(const std::string &id)
{
    return request("{\"op\":\"shutdown\",\"id\":" +
                   sweep::jsonQuote(id) + "}");
}

} // namespace server
} // namespace qmh
