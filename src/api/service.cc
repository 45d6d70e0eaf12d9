#include "service.hh"

#include <charconv>
#include <cmath>

#include "common/json.hh"
#include "sweep/emit.hh"

namespace qmh {
namespace api {

namespace {

Error
badRequest(std::string message)
{
    return Error{ErrorCode::BadRequest, std::move(message), {}};
}

/** Non-negative integral JSON number (or decimal string) as u64. */
std::optional<std::uint64_t>
asUInt(const json::Value &value)
{
    if (value.isString())
        return parseUInt(value.string());
    if (!value.isNumber())
        return std::nullopt;
    const double d = value.number();
    if (!(d >= 0.0) || d != std::floor(d) || d > 9007199254740992.0)
        return std::nullopt;  // 2^53: past that, doubles drop seeds
    return static_cast<std::uint64_t>(d);
}

Error
malformedJson(const json::ParseResult &parsed)
{
    return badRequest("malformed JSON at byte " +
                      std::to_string(parsed.offset) + ": " +
                      parsed.error);
}

/** Append @p count in decimal. */
void
appendCount(std::string &out, std::size_t count)
{
    char buffer[24];
    const auto written =
        std::to_chars(buffer, buffer + sizeof buffer, count);
    out.append(buffer, written.ptr);
}

/** parseServiceRequest over an already-parsed JSON document. */
Outcome<ServiceRequest>
decodeServiceRequest(const json::Value &root)
{
    if (!root.isObject())
        return badRequest("request must be a JSON object");

    ServiceRequest request;
    if (const auto *id = root.find("id")) {
        if (!id->isString())
            return badRequest("'id' must be a string");
        request.id = id->string();
    }
    if (const auto *op = root.find("op")) {
        if (!op->isString())
            return badRequest(
                "unknown op (\"sweep\" and \"shutdown\" are served)");
        if (op->string() == "shutdown")
            request.op = ServiceOp::Shutdown;
        else if (op->string() != "sweep")
            return badRequest(
                "unknown op (\"sweep\" and \"shutdown\" are served)");
    }
    if (request.op == ServiceOp::Shutdown)
        return request;  // no further fields apply

    if (const auto *seed = root.find("seed")) {
        const auto value = asUInt(*seed);
        if (!value)
            return badRequest("'seed' must be a non-negative integer");
        request.seed = *value;
    }
    if (const auto *mode = root.find("seed_mode")) {
        if (mode->isString() && mode->string() == "index")
            request.seed_mode = SeedMode::Index;
        else if (mode->isString() && mode->string() == "spec")
            request.seed_mode = SeedMode::Spec;
        else
            return badRequest(
                "'seed_mode' must be \"index\" or \"spec\"");
    }
    if (const auto *limit = root.find("limit")) {
        const auto value = asUInt(*limit);
        if (!value)
            return badRequest(
                "'limit' must be a non-negative integer");
        request.limit = static_cast<std::size_t>(*value);
    }

    const auto *specs = root.find("specs");
    if (!specs || !specs->isArray())
        return badRequest("'specs' must be an array of spec strings");
    std::vector<std::string> diagnostics;
    for (std::size_t i = 0; i < specs->items().size(); ++i) {
        const auto &item = specs->items()[i];
        if (!item.isString())
            return badRequest("specs[" + std::to_string(i) +
                              "] is not a string");
        const auto spec = parseSpec(item.string());
        for (const auto &problem : spec.errors)
            diagnostics.push_back("specs[" + std::to_string(i) +
                                  "]: " + problem);
        request.specs.push_back(spec.spec);
    }
    if (!diagnostics.empty())
        return Error{ErrorCode::InvalidSpec,
                     std::to_string(diagnostics.size()) +
                         " spec parse error(s)",
                     std::move(diagnostics)};
    return request;
}

} // namespace

std::string
recordAccepted(const std::string &id, std::size_t total,
               const std::vector<std::string> &columns)
{
    std::string out = "{\"type\":\"accepted\",\"id\":";
    sweep::appendJsonQuoted(out, id);
    out += ",\"total\":";
    appendCount(out, total);
    out += ",\"columns\":[";
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (c)
            out += ',';
        sweep::appendJsonQuoted(out, columns[c]);
    }
    out += "]}";
    return out;
}

std::string
recordRow(const std::string &id, std::size_t index,
          const std::vector<std::string> &columns,
          const std::vector<sweep::Cell> &cells)
{
    // One reserved buffer, every cell appended in place: a guess of
    // 32 bytes per cell beyond its column name covers the numeric
    // cells, so only a long text cell (the spec) can grow it.
    std::size_t guess = 64 + id.size();
    for (std::size_t c = 0; c < cells.size(); ++c)
        guess += columns[c].size() + 32;
    std::string out;
    out.reserve(guess);
    out += "{\"type\":\"row\",\"id\":";
    sweep::appendJsonQuoted(out, id);
    out += ",\"index\":";
    appendCount(out, index);
    out += ",\"cells\":{";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c)
            out += ',';
        sweep::appendJsonQuoted(out, columns[c]);
        out += ':';
        cells[c].appendJson(out);
    }
    out += "}}";
    return out;
}

std::string
recordError(const std::string &id, const Error &error)
{
    std::string out = "{\"type\":\"error\",\"id\":";
    sweep::appendJsonQuoted(out, id);
    out += ",\"code\":\"";
    out += errorCodeName(error.code);
    out += "\",\"message\":";
    sweep::appendJsonQuoted(out, error.message);
    out += ",\"details\":[";
    for (std::size_t i = 0; i < error.details.size(); ++i) {
        if (i)
            out += ',';
        sweep::appendJsonQuoted(out, error.details[i]);
    }
    out += "]}";
    return out;
}

std::string
recordDone(const std::string &id, std::size_t rows, std::size_t total,
           bool cancelled)
{
    std::string out = "{\"type\":\"done\",\"id\":";
    sweep::appendJsonQuoted(out, id);
    out += ",\"rows\":";
    appendCount(out, rows);
    out += ",\"total\":";
    appendCount(out, total);
    out += cancelled ? ",\"cancelled\":true}" : ",\"cancelled\":false}";
    return out;
}

Outcome<ServiceRequest>
parseServiceRequest(const std::string &line)
{
    const auto parsed = json::parse(line);
    if (!parsed.ok())
        return malformedJson(parsed);
    return decodeServiceRequest(parsed.value);
}

std::optional<ServiceLine>
decodeServiceLine(const std::string &line)
{
    if (line.find_first_not_of(" \t\r") == std::string::npos)
        return std::nullopt;
    const auto parsed = json::parse(line);
    if (!parsed.ok())
        return ServiceLine{"", malformedJson(parsed)};
    std::string id;
    if (const auto *found = parsed.value.find("id");
        found && found->isString())
        id = found->string();
    return ServiceLine{std::move(id),
                       decodeServiceRequest(parsed.value)};
}

} // namespace api
} // namespace qmh
