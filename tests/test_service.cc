/** @file Unit tests for the JSON reader and the JSONL service. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string_view>

#include "api/service.hh"
#include "common/json.hh"
#include "opt/result_cache.hh"
#include "server/connection.hh"
#include "sweep/emit.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace {

// ---------------------------------------------------------------------------
// json::parse
// ---------------------------------------------------------------------------

TEST(Json, ParsesEveryValueKind)
{
    const auto parsed = json::parse(
        R"({"null":null,"t":true,"f":false,"n":-12.5e2,)"
        R"("s":"hi","a":[1,2,3],"o":{"k":"v"}})");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const auto &root = parsed.value;
    ASSERT_TRUE(root.isObject());
    EXPECT_TRUE(root.find("null")->isNull());
    EXPECT_TRUE(root.find("t")->boolean());
    EXPECT_FALSE(root.find("f")->boolean());
    EXPECT_DOUBLE_EQ(root.find("n")->number(), -1250.0);
    EXPECT_EQ(root.find("s")->string(), "hi");
    ASSERT_EQ(root.find("a")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(root.find("a")->items()[1].number(), 2.0);
    EXPECT_EQ(root.find("o")->find("k")->string(), "v");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(Json, DecodesStringEscapes)
{
    const auto parsed = json::parse(
        R"(["q\"q","b\\b","\/","\b\f\n\r\t","\u0041","\u00e9",)"
        R"("\u20ac","\ud83d\ude00"])");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const auto &items = parsed.value.items();
    EXPECT_EQ(items[0].string(), "q\"q");
    EXPECT_EQ(items[1].string(), "b\\b");
    EXPECT_EQ(items[2].string(), "/");
    EXPECT_EQ(items[3].string(), "\b\f\n\r\t");
    EXPECT_EQ(items[4].string(), "A");
    EXPECT_EQ(items[5].string(), "\xc3\xa9");          // é
    EXPECT_EQ(items[6].string(), "\xe2\x82\xac");      // €
    EXPECT_EQ(items[7].string(), "\xf0\x9f\x98\x80");  // emoji
}

/** Documents parse() must refuse. */
const std::vector<std::string> malformed_documents = {
    "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01",
    "1.", "1e", "+1", "\"unterminated", "\"bad\\escape\"",
    "\"\\u12G4\"", "\"\\ud800\"", "\"\\ud800\\u0041\"",
    "{} trailing", "nan", "[1] [2]",
    "\"ctrl\tchar\""};

TEST(Json, RejectsMalformedDocuments)
{
    for (const auto &bad : malformed_documents) {
        const auto parsed = json::parse(bad);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    }
    // Last duplicate key wins, matching common JSON semantics.
    const auto dup = json::parse(R"({"k":1,"k":2})");
    ASSERT_TRUE(dup.ok());
    EXPECT_DOUBLE_EQ(dup.value.find("k")->number(), 2.0);
}

TEST(Json, RejectsPathologicalNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    EXPECT_FALSE(json::parse(deep).ok());
}

// ---------------------------------------------------------------------------
// json::LineSplitter
// ---------------------------------------------------------------------------

/** Every line ready so far, as text ("<oversized>" marks the flag). */
std::vector<std::string>
drained(json::LineSplitter &splitter)
{
    std::vector<std::string> out;
    while (auto line = splitter.next())
        out.push_back(line->oversized ? "<oversized>" : line->text);
    return out;
}

TEST(LineSplitter, ReassemblesRecordsSplitAcrossArbitraryReads)
{
    json::LineSplitter splitter;
    // One JSONL record sliced mid-token, plus a second record sharing
    // its final chunk — the shapes socket reads actually produce.
    splitter.feed(R"({"op":"swe)");
    EXPECT_EQ(drained(splitter), std::vector<std::string>{});
    EXPECT_EQ(splitter.pending(), 10u);
    splitter.feed(R"(ep","id":"a"})" "\n" R"({"op":)");
    EXPECT_EQ(drained(splitter),
              std::vector<std::string>{R"({"op":"sweep","id":"a"})"});
    splitter.feed("\"shutdown\"}\n");
    EXPECT_EQ(drained(splitter),
              std::vector<std::string>{R"({"op":"shutdown"})"});
    EXPECT_EQ(splitter.pending(), 0u);
}

TEST(LineSplitter, ManyLinesInOneChunkComeOutInOrder)
{
    json::LineSplitter splitter;
    splitter.feed("one\ntwo\nthree\n\nfive\n");
    const std::vector<std::string> expect = {"one", "two", "three",
                                             "", "five"};
    EXPECT_EQ(drained(splitter), expect);
    EXPECT_FALSE(splitter.finish().has_value());
}

TEST(LineSplitter, CrlfClientsLoseExactlyOneCarriageReturn)
{
    json::LineSplitter splitter;
    splitter.feed("dos\r\nunix\nodd\r\r\n");
    const std::vector<std::string> expect = {"dos", "unix", "odd\r"};
    EXPECT_EQ(drained(splitter), expect);

    // The CR is stripped even when the CRLF pair itself is split
    // across two reads.
    splitter.feed("split\r");
    splitter.feed("\n");
    EXPECT_EQ(drained(splitter), std::vector<std::string>{"split"});
}

TEST(LineSplitter, OversizedRecordIsDiscardedNeverBuffered)
{
    json::LineSplitter splitter(8);
    // 9 bytes before the newline: one past the cap.
    splitter.feed("012345678");
    // The partial was dropped, not accumulated — this is the
    // no-unbounded-buffering guarantee a hostile writer hits.
    EXPECT_EQ(splitter.pending(), 0u);
    splitter.feed("... megabytes more ...");
    EXPECT_EQ(splitter.pending(), 0u);
    EXPECT_EQ(drained(splitter), std::vector<std::string>{});

    // The newline finally lands: one oversized marker, then the
    // stream resumes cleanly with the next record.
    splitter.feed("\nok\n");
    const std::vector<std::string> expect = {"<oversized>", "ok"};
    EXPECT_EQ(drained(splitter), expect);
}

TEST(LineSplitter, CapIsExclusiveAtExactlyMaxLine)
{
    json::LineSplitter splitter(8);
    splitter.feed("01234567\n");  // exactly max_line: fine
    EXPECT_EQ(drained(splitter),
              std::vector<std::string>{"01234567"});
    // A single oversized feed is also caught, not just accumulation.
    splitter.feed("012345678\n");
    EXPECT_EQ(drained(splitter),
              std::vector<std::string>{"<oversized>"});
}

TEST(LineSplitter, FinishFlushesTheUnterminatedTail)
{
    json::LineSplitter splitter;
    splitter.feed("complete\npartial");
    EXPECT_EQ(drained(splitter),
              std::vector<std::string>{"complete"});
    const auto tail = splitter.finish();
    ASSERT_TRUE(tail.has_value());
    EXPECT_FALSE(tail->oversized);
    EXPECT_EQ(tail->text, "partial");
    // At most one flush; the splitter is then empty.
    EXPECT_FALSE(splitter.finish().has_value());
    EXPECT_EQ(splitter.pending(), 0u);
}

TEST(LineSplitter, FinishReportsAnOversizedTail)
{
    json::LineSplitter splitter(4);
    splitter.feed("too long, never terminated");
    const auto tail = splitter.finish();
    ASSERT_TRUE(tail.has_value());
    EXPECT_TRUE(tail->oversized);
    EXPECT_TRUE(tail->text.empty());
    EXPECT_FALSE(splitter.finish().has_value());
}

// ---------------------------------------------------------------------------
// parseServiceRequest
// ---------------------------------------------------------------------------

TEST(Service, ParsesAFullRequest)
{
    const auto parsed = api::parseServiceRequest(
        R"({"op":"sweep","id":"r7","seed":12,"limit":3,)"
        R"("seed_mode":"spec",)"
        R"("specs":["experiment=cache n=64","experiment=cache"]})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    const auto &request = parsed.value();
    EXPECT_EQ(request.op, api::ServiceOp::Sweep);
    EXPECT_EQ(request.id, "r7");
    ASSERT_EQ(request.specs.size(), 2u);
    EXPECT_EQ(request.specs[0].n, 64);
    EXPECT_EQ(request.seed, std::uint64_t(12));
    EXPECT_EQ(request.seed_mode, api::SeedMode::Spec);
    EXPECT_EQ(request.limit, 3u);
}

TEST(Service, ParsesAShutdownRequestWithoutSpecs)
{
    const auto parsed = api::parseServiceRequest(
        R"({"op":"shutdown","id":"bye"})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(parsed.value().op, api::ServiceOp::Shutdown);
    EXPECT_EQ(parsed.value().id, "bye");
}

TEST(Service, RequestErrorsAreTyped)
{
    using api::ErrorCode;
    const auto code = [](const char *line) {
        return api::parseServiceRequest(line).error().code;
    };
    EXPECT_EQ(code("nonsense"), ErrorCode::BadRequest);
    EXPECT_EQ(code("[1,2]"), ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"specs":"not an array"})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"specs":[42]})"), ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"op":"drop","specs":[]})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"seed":-1,"specs":[]})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"seed":1.5,"specs":[]})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"seed_mode":"banana","specs":[]})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"seed_mode":7,"specs":[]})"),
              ErrorCode::BadRequest);
    EXPECT_EQ(code(R"({"specs":["experiment=nope"]})"),
              ErrorCode::InvalidSpec);
    // Seeds beyond 2^53 must arrive as strings to survive doubles.
    const auto big = api::parseServiceRequest(
        R"({"seed":"18446744073709551615","specs":[]})");
    ASSERT_TRUE(big.ok());
    EXPECT_EQ(big.value().seed, std::uint64_t(-1));
}

// ---------------------------------------------------------------------------
// server::runService
// ---------------------------------------------------------------------------

std::string
serve(const std::string &requests, unsigned threads = 2)
{
    api::Session session({.threads = threads});
    std::istringstream in(requests);
    std::ostringstream out;
    server::runService(session, in, out);
    return out.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> result;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        result.push_back(line);
    return result;
}

TEST(Service, RequestSeedsFollowTheSeedMode)
{
    const std::vector<std::string> specs = {"experiment=cache n=64",
                                            "experiment=cache"};
    const auto served = [&](const std::string &mode) {
        return lines(serve("{\"id\":\"s\",\"seed\":9,\"seed_mode\":\"" +
                           mode + "\",\"specs\":[\"" + specs[0] +
                           "\",\"" + specs[1] + "\"]}\n"));
    };
    const auto by_spec = served("spec");
    const auto by_index = served("index");
    ASSERT_EQ(by_spec.size(), 4u);
    ASSERT_EQ(by_index.size(), 4u);
    // The seed is a row's last cell, so its record ends with it.
    const auto seed_cell = [](std::uint64_t seed) {
        return "\"seed\":" + std::to_string(seed) + "}}";
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &spec_row = by_spec[1 + i];
        const auto &index_row = by_index[1 + i];
        // Spec mode: each seed is a function of the spec alone, so it
        // must agree with opt::specSeed over the canonical print.
        const auto canonical =
            api::printSpec(api::parseSpec(specs[i]).spec);
        EXPECT_TRUE(
            spec_row.ends_with(seed_cell(opt::specSeed(9, canonical))))
            << spec_row;
        // Index mode: a function of the position in the request.
        EXPECT_TRUE(
            index_row.ends_with(seed_cell(sweep::pointSeed(9, i))))
            << index_row;
    }
    EXPECT_NE(by_spec[1].substr(by_spec[1].rfind("\"seed\"")),
              by_spec[2].substr(by_spec[2].rfind("\"seed\"")));
}

/** What one runService call wrote, and its counters. */
struct Served
{
    std::vector<std::string> records;
    server::ConnectionStats stats;
};

Served
serveCounted(const std::string &requests, unsigned threads)
{
    api::Session session({.threads = threads});
    std::istringstream in(requests);
    std::ostringstream out;
    const auto stats = server::runService(session, in, out);
    return {lines(out.str()), stats};
}

TEST(Service, LimitRunsOnlyTheRowsItStreams)
{
    // limit=2 over six points: the four past it never run, whatever
    // the thread count.
    std::string request = "{\"id\":\"l\",\"limit\":2,\"specs\":[";
    for (int i = 0; i < 6; ++i)
        request += std::string(i ? "," : "") +
                   "\"experiment=montecarlo trials=" +
                   std::to_string(400 + i) + "\"";
    request += "]}\n";
    const auto served = serveCounted(request, 4);
    EXPECT_EQ(served.stats.simulated, 2u);
    EXPECT_EQ(served.stats.rows, 2u);
    ASSERT_EQ(served.records.size(), 4u);
    EXPECT_NE(served.records.back().find(
                  "\"rows\":2,\"total\":6,\"cancelled\":true"),
              std::string::npos);
}

TEST(Service, SpecModeRunsARepeatedSpecOnce)
{
    const auto served = serveCounted(
        "{\"id\":\"r\",\"seed_mode\":\"spec\",\"specs\":["
        "\"experiment=montecarlo trials=400\","
        "\"experiment=montecarlo trials=400\","
        "\"experiment=montecarlo trials=400\"]}\n",
        4);
    EXPECT_EQ(served.stats.simulated, 1u);
    EXPECT_EQ(served.stats.rows, 3u);
    const auto &records = served.records;
    ASSERT_EQ(records.size(), 5u);
    const auto cells = [](const std::string &record) {
        return record.substr(record.find("\"cells\""));
    };
    EXPECT_EQ(cells(records[1]), cells(records[2]));
    EXPECT_EQ(cells(records[1]), cells(records[3]));
}

/** Two bandwidth points: accepted, two rows, done. */
const std::string framed_request =
    "{\"id\":\"a\",\"specs\":[\"experiment=bandwidth blocks=10\","
    "\"experiment=bandwidth blocks=20\"]}\n";

TEST(Service, StreamsRowsFramedByAcceptedAndDone)
{
    const auto output = serve(framed_request);
    const auto records = lines(output);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_NE(records[0].find("\"type\":\"accepted\""),
              std::string::npos);
    EXPECT_NE(records[0].find("\"total\":2"), std::string::npos);
    EXPECT_NE(records[1].find("\"type\":\"row\""), std::string::npos);
    EXPECT_NE(records[1].find("\"index\":0"), std::string::npos);
    EXPECT_NE(records[1].find("blocks=10"), std::string::npos);
    EXPECT_NE(records[2].find("\"index\":1"), std::string::npos);
    EXPECT_NE(records[3].find(
                  "\"rows\":2,\"total\":2,\"cancelled\":false"),
              std::string::npos);
    // Every record is itself valid JSON.
    for (const auto &record : records)
        EXPECT_TRUE(json::parse(record).ok()) << record;
}

/** What the Value tree holds for member @p key as a string, or "". */
std::string
domMemberString(std::string_view text, std::string_view key)
{
    const auto parsed = json::parse(text);
    if (!parsed.ok())
        return "";
    const auto *value = parsed.value.find(key);
    return value && value->isString() ? value->string() : "";
}

TEST(Json, MemberStringScanMatchesParseAndFind)
{
    std::vector<std::string> corpus = malformed_documents;

    // Nesting at the depth limit (64) and one past it, below a "type"
    // member, through arrays and through objects.
    for (const int depth : {63, 64, 65}) {
        std::string arrays = R"({"type":"row","a":)";
        std::string objects = R"({"type":"row","a":)";
        for (int i = 1; i < depth; ++i) {
            arrays += '[';
            objects += R"({"k":)";
        }
        arrays += "[]";
        objects += "{}";
        for (int i = 1; i < depth; ++i) {
            arrays += ']';
            objects += '}';
        }
        corpus.push_back(arrays + '}');
        corpus.push_back(objects + '}');
    }
    EXPECT_TRUE(json::parse(corpus[corpus.size() - 3]).ok());
    EXPECT_FALSE(json::parse(corpus[corpus.size() - 1]).ok());

    for (const char *text : {
             // duplicates: the last one wins, whatever its type
             R"({"type":"a","type":"b"})", R"({"type":"a","type":1})",
             R"({"type":1,"type":"c"})", R"({"type":"a","type":null})",
             // a non-string "type"
             R"({"type":true})", R"({"type":["row"]})",
             R"({"type":{"type":"row"}})", R"({"type":-0.5e3})",
             // nested members never match
             R"({"a":{"type":"row"}})", R"({"a":[{"type":"row"}]})",
             // escaped keys and values decode before comparing
             R"({"\u0074ype":"row"})", R"({"typ\u0065":"done"})",
             R"({"type":"r\u006fw"})", R"({"type":"a\"b\\c\n"})",
             R"({"type":"\ud83d\ude00"})", R"({"type\u0000":"x"})",
             R"({"typ":"x","types":"y","typeX":"z","":"e"})",
             // non-object top levels
             R"(["type","row"])", R"("type")", "42", "null", "true",
             // trailing garbage, and allowed surrounding whitespace
             R"({"type":"row"} x)", R"({"type":"row"}{})",
             R"({"type":"row"},)", " \t{ \"type\" :\n\"row\" } \r\n",
             // a number parse() cannot hold
             R"({"type":"row","x":1e400})"})
        corpus.emplace_back(text);

    // Every record one served request emits.
    const auto records = lines(serve(framed_request));
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(json::memberString(records[0], "type"), "accepted");
    EXPECT_EQ(json::memberString(records[1], "type"), "row");
    EXPECT_EQ(json::memberString(records[3], "type"), "done");
    EXPECT_EQ(json::memberString(records[1], "id"), "a");
    corpus.insert(corpus.end(), records.begin(), records.end());

    for (const auto &text : corpus)
        for (const char *key : {"type", "id", "", "typ", "a"})
            EXPECT_EQ(json::memberString(text, key),
                      domMemberString(text, key))
                << "key " << key << " in " << text;
    EXPECT_EQ(json::memberString(R"({"type":"a","type":"b"})", "type"),
              "b");
    EXPECT_EQ(json::memberString(R"({"\u0074ype":"r\u006fw"})", "type"),
              "row");
}

TEST(Service, RecordBytesArePinned)
{
    // One row holding every Cell alternative: each escape class in
    // text, non-finite doubles (null), the 64-bit extremes and
    // shortest-form doubles down to the smallest subnormal.
    const std::vector<std::string> columns = {
        "text", "in\"f", "neg_inf", "nan", "int_min", "uint_max",
        "tenth", "tiny", "subnormal", "small", "unsigned"};
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<sweep::Cell> cells = {
        sweep::Cell(std::string("q\"b\\n\nr\rt\t\x01/\x1f\xc3\xa9")),
        sweep::Cell(inf),
        sweep::Cell(-inf),
        sweep::Cell(std::numeric_limits<double>::quiet_NaN()),
        sweep::Cell(std::numeric_limits<std::int64_t>::min()),
        sweep::Cell(std::numeric_limits<std::uint64_t>::max()),
        sweep::Cell(0.1),
        sweep::Cell(1e-300),
        sweep::Cell(5e-324),
        sweep::Cell(-7),
        sweep::Cell(7u)};
    const std::string id = "id\"\\\n\x01";
    EXPECT_EQ(
        api::recordRow(id, 3, columns, cells),
        R"({"type":"row","id":"id\"\\\n\u0001","index":3,"cells":{)"
        R"("text":"q\"b\\n\nr\rt\t\u0001/\u001f)" "\xc3\xa9" R"(",)"
        R"("in\"f":null,"neg_inf":null,"nan":null,)"
        R"("int_min":-9223372036854775808,)"
        R"("uint_max":18446744073709551615,)"
        R"("tenth":0.1,"tiny":1e-300,"subnormal":5e-324,)"
        R"("small":-7,"unsigned":7}})");
    EXPECT_EQ(api::recordRow("", 0, {}, {}),
              R"({"type":"row","id":"","index":0,"cells":{}})");
    EXPECT_EQ(
        api::recordAccepted(id, 18446744073709551615u, columns),
        R"({"type":"accepted","id":"id\"\\\n\u0001",)"
        R"("total":18446744073709551615,"columns":["text","in\"f",)"
        R"("neg_inf","nan","int_min","uint_max","tenth","tiny",)"
        R"("subnormal","small","unsigned"]})");
    EXPECT_EQ(api::recordAccepted("r", 0, {}),
              R"({"type":"accepted","id":"r","total":0,"columns":[]})");
    EXPECT_EQ(
        api::recordError(id, api::Error{api::ErrorCode::InvalidSpec,
                                        "bad \"spec\"\t",
                                        {"specs[0]: x\\y", "\r"}}),
        R"({"type":"error","id":"id\"\\\n\u0001","code":"invalid_spec",)"
        R"("message":"bad \"spec\"\t","details":["specs[0]: x\\y","\r"]})");
    EXPECT_EQ(api::recordError("e", api::Error{api::ErrorCode::BadRequest,
                                               "", {}}),
              R"({"type":"error","id":"e","code":"bad_request",)"
              R"("message":"","details":[]})");
    EXPECT_EQ(api::recordDone(id, 2, 5, true),
              R"({"type":"done","id":"id\"\\\n\u0001","rows":2,)"
              R"("total":5,"cancelled":true})");
    EXPECT_EQ(api::recordDone("d", 0, 0, false),
              R"({"type":"done","id":"d","rows":0,"total":0,)"
              R"("cancelled":false})");
    // The wrappers and the append forms are one escaper.
    EXPECT_EQ(sweep::jsonQuote(id), R"("id\"\\\n\u0001")");
    std::string appended = "x";
    sweep::appendJsonQuoted(appended, id);
    cells[0].appendJson(appended);
    EXPECT_EQ(appended, "x" + sweep::jsonQuote(id) + cells[0].toJson());
}

TEST(Service, LimitCancelsAndReportsTruncation)
{
    const auto output = serve(
        "{\"id\":\"lim\",\"limit\":1,\"specs\":["
        "\"experiment=bandwidth blocks=10\","
        "\"experiment=bandwidth blocks=20\","
        "\"experiment=bandwidth blocks=30\"]}\n");
    const auto records = lines(output);
    ASSERT_EQ(records.size(), 3u);  // accepted, one row, done
    EXPECT_NE(records[2].find(
                  "\"rows\":1,\"total\":3,\"cancelled\":true"),
              std::string::npos);
}

TEST(Service, ErrorsAreRecordsAndTheLoopKeepsServing)
{
    const auto output = serve(
        "this is not json\n"
        "\n"
        "{\"id\":\"bad\",\"specs\":[\"experiment=hierarchy "
        "n=5000\"]}\n"
        "{\"id\":\"ok\",\"specs\":[\"experiment=bandwidth\"]}\n");
    const auto records = lines(output);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_NE(records[0].find("\"code\":\"bad_request\""),
              std::string::npos);
    EXPECT_NE(records[1].find("\"code\":\"invalid_spec\""),
              std::string::npos);
    EXPECT_NE(records[1].find("\"id\":\"bad\""), std::string::npos);
    // The loop recovered and served the valid request.
    EXPECT_NE(records[2].find("\"type\":\"accepted\""),
              std::string::npos);
    EXPECT_NE(records[4].find("\"cancelled\":false"),
              std::string::npos);
}

TEST(Service, RandomWorkloadBelowItsQubitFloorIsATypedInvalidSpec)
{
    // n=2 passes the trace kind's own range, but gen::randomMixed
    // needs 3 qubits: the generator's precondition must turn it away
    // at validation, before a worker ever builds it.
    const auto output = serve(
        "{\"op\":\"sweep\",\"id\":\"x\",\"specs\":["
        "\"experiment=trace workload=random n=2\"]}\n"
        "{\"id\":\"after\",\"specs\":[\"experiment=bandwidth\"]}\n");
    const auto records = lines(output);
    ASSERT_EQ(records.size(), 4u);  // error, then accepted, row, done
    EXPECT_NE(records[0].find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(records[0].find("\"id\":\"x\""), std::string::npos);
    EXPECT_NE(records[0].find("\"code\":\"invalid_spec\""),
              std::string::npos);
    EXPECT_NE(records[0].find("workload random needs n >= 3"),
              std::string::npos);
    // The process is still serving.
    EXPECT_NE(records[3].find("\"id\":\"after\""), std::string::npos);
    EXPECT_NE(records[3].find("\"rows\":1,\"total\":1"),
              std::string::npos);
}

TEST(Service, IdenticalRequestsStreamIdenticalBytes)
{
    const std::string request =
        "{\"id\":\"d\",\"seed\":5,\"specs\":["
        "\"experiment=montecarlo trials=400\","
        "\"experiment=montecarlo trials=401\","
        "\"experiment=montecarlo trials=402\"]}\n";
    EXPECT_EQ(serve(request, 1), serve(request, 4));
}

TEST(Service, ShutdownAnswersDoneAndEndsTheLoop)
{
    const auto output = serve(
        "{\"op\":\"shutdown\",\"id\":\"bye\"}\n"
        "{\"id\":\"never\",\"specs\":[\"experiment=bandwidth\"]}\n");
    const auto records = lines(output);
    ASSERT_EQ(records.size(), 1u);  // the request after it is unread
    EXPECT_EQ(records[0],
              "{\"type\":\"done\",\"id\":\"bye\",\"rows\":0,"
              "\"total\":0,\"cancelled\":false}");
}

TEST(Service, SpecSeedModeRowsAreIndependentOfListPosition)
{
    // The same two specs in both orders, spec-addressed seeds: each
    // spec's cells (seed column included) must not move with its
    // position — that independence is what lets a shared server
    // cache replay a row into any client's request.
    const auto forward = lines(serve(
        "{\"id\":\"s\",\"seed\":5,\"seed_mode\":\"spec\",\"specs\":["
        "\"experiment=montecarlo trials=400\","
        "\"experiment=montecarlo trials=401\"]}\n"));
    const auto backward = lines(serve(
        "{\"id\":\"s\",\"seed\":5,\"seed_mode\":\"spec\",\"specs\":["
        "\"experiment=montecarlo trials=401\","
        "\"experiment=montecarlo trials=400\"]}\n"));
    ASSERT_EQ(forward.size(), 4u);
    ASSERT_EQ(backward.size(), 4u);
    const auto cells = [](const std::string &record) {
        const auto at = record.find("\"cells\"");
        EXPECT_NE(at, std::string::npos) << record;
        return record.substr(at);
    };
    EXPECT_EQ(cells(forward[1]), cells(backward[2]));
    EXPECT_EQ(cells(forward[2]), cells(backward[1]));
    EXPECT_NE(cells(forward[1]), cells(forward[2]));
}

} // namespace
} // namespace qmh
