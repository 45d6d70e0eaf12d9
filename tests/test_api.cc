/** @file Unit tests for the qmh::api experiment facade. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/spec.hh"
#include "api/workload.hh"
#include "common/table.hh"
#include "cqla/hierarchy.hh"
#include "run_table.hh"

namespace qmh {
namespace api {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

/** Whether @p token is one of the `key=value` tokens of printSpec(). */
bool
printsToken(const ExperimentSpec &spec, const std::string &token)
{
    std::istringstream in(printSpec(spec));
    for (std::string word; in >> word;)
        if (word == token)
            return true;
    return false;
}

TEST(Spec, DefaultsPrintAsKindOnly)
{
    EXPECT_EQ(printSpec(ExperimentSpec{}), "experiment=hierarchy");
}

TEST(Spec, PrintParsesBackExactly)
{
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Cache;
    spec.code = ecc::CodeKind::BaconShor913;
    spec.workload = "random";
    spec.n = 96;
    spec.gates = 777;
    spec.warm = true;
    spec.policy = cache::FetchPolicy::InOrder;
    spec.capacity_x = 0.1 + 0.2;  // not representable as "0.3"
    spec.utilization = 2.0 / 3.0;
    spec.p0 = -0.0;               // prints as "-0" and parses back
    const auto text = printSpec(spec);
    EXPECT_NE(text.find("p0=-0"), std::string::npos) << text;
    const auto parsed = parseSpec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    EXPECT_TRUE(parsed.spec == spec) << text;
    // And printing the reparsed spec is a fixed point.
    EXPECT_EQ(printSpec(parsed.spec), text);
}

TEST(Spec, RoundTripsEveryKind)
{
    for (const auto kind :
         {ExperimentKind::Hierarchy, ExperimentKind::Cache,
          ExperimentKind::Bandwidth, ExperimentKind::MonteCarlo,
          ExperimentKind::Trace}) {
        ExperimentSpec spec;
        spec.kind = kind;
        spec.machine = "now";
        spec.trials = 12345;
        spec.p0 = 3.7e-4;
        const auto parsed = parseSpec(printSpec(spec));
        ASSERT_TRUE(parsed.ok());
        EXPECT_TRUE(parsed.spec == spec);
    }

    // A spec built in C++ that validates also re-parses, so its spec
    // column names the same point: values on both sides of the
    // parser's bounds, under every kind.
    using Edit = void (*)(ExperimentSpec &);
    const Edit edits[] = {
        [](ExperimentSpec &s) { s.blocks = 0; },
        [](ExperimentSpec &s) { s.blocks = 100000; },
        [](ExperimentSpec &s) { s.blocks = 2000000; },
        [](ExperimentSpec &s) { s.transfers = 100000; },
        [](ExperimentSpec &s) { s.transfers = 200000; },
        [](ExperimentSpec &s) { s.mem_banks = 4096; },
        [](ExperimentSpec &s) { s.mem_banks = 5000; },
        [](ExperimentSpec &s) { s.cycles_per_line = 1000000000; },
        [](ExperimentSpec &s) { s.cycles_per_line = 2000000000; },
        [](ExperimentSpec &s) { s.level = 0; },
        [](ExperimentSpec &s) { s.level = 3; },
        [](ExperimentSpec &s) {
            s.workload = "random";
            s.n = 8;
            s.gates = 0;
        },
        [](ExperimentSpec &s) {
            s.workload = "random";
            s.n = 8;
            s.gates = 1;
        },
        [](ExperimentSpec &s) {
            s.workload = "modexp";
            s.n = 16;
            s.reps = 10000;
        },
        [](ExperimentSpec &s) {
            s.workload = "modexp";
            s.n = 16;
            s.reps = 20000;
        },
    };
    int validated = 0;
    for (const auto kind :
         {ExperimentKind::Hierarchy, ExperimentKind::Cache,
          ExperimentKind::Bandwidth, ExperimentKind::MonteCarlo,
          ExperimentKind::Trace}) {
        for (const auto edit : edits) {
            ExperimentSpec spec;
            spec.kind = kind;
            edit(spec);
            if (!makeExperiment(spec)->validate().empty())
                continue;
            ++validated;
            const auto parsed = parseSpec(printSpec(spec));
            EXPECT_TRUE(parsed.ok()) << printSpec(spec);
            EXPECT_TRUE(parsed.spec == spec) << printSpec(spec);
        }
    }
    EXPECT_GE(validated, 10);
}

TEST(Spec, DoubleRoundTripFuzz)
{
    // The result cache is keyed on canonical spec strings, so the
    // printer must round-trip *every* finite double bit-exactly —
    // including subnormals, negative zero and values with no short
    // decimal form. Drive random bit patterns through print -> parse.
    Random rng(0xF00DF00DULL);
    int tested = 0;
    while (tested < 5000) {
        const std::uint64_t bits = rng.next();
        double value;
        static_assert(sizeof(value) == sizeof(bits));
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value))
            continue;  // the spec layer rejects non-finite values
        ++tested;
        const auto reparsed = parseDouble(formatDoubleShortest(value));
        ASSERT_TRUE(reparsed.has_value()) << formatDoubleShortest(value);
        EXPECT_EQ(std::memcmp(&*reparsed, &value, sizeof(value)), 0)
            << formatDoubleShortest(value);

        ExperimentSpec spec;
        spec.utilization = value;
        const auto parsed = parseSpec(printSpec(spec));
        ASSERT_TRUE(parsed.ok()) << printSpec(spec);
        EXPECT_TRUE(parsed.spec == spec) << printSpec(spec);
        EXPECT_EQ(printSpec(parsed.spec), printSpec(spec));
    }
}

TEST(Spec, NonRepresentableDecimalRoundTrips)
{
    // 0.1 has no exact binary representation; the canonical printer
    // must still emit a string that parses back to the same bits (and
    // stays the human-friendly shortest form, not 0.1000000000000000055…).
    ExperimentSpec spec;
    ASSERT_EQ(specSet(spec, "utilization", "0.1"), "");
    EXPECT_TRUE(printsToken(spec, "utilization=0.1")) << printSpec(spec);
    EXPECT_EQ(spec.utilization, 0.1);
    const auto parsed = parseSpec(printSpec(spec));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.spec == spec);
}

TEST(Spec, RejectsNonFiniteReals)
{
    // NaN breaks parse(print(s)) == s (NaN != NaN) and inf corrupts
    // the casts that size caches from capacity_x, so the field
    // setters must refuse what parseDouble itself accepts.
    ExperimentSpec spec;
    EXPECT_NE(specSet(spec, "capacity_x", "inf"), "");
    EXPECT_NE(specSet(spec, "utilization", "-inf"), "");
    EXPECT_NE(specSet(spec, "p0", "nan"), "");
    EXPECT_NE(specSet(spec, "noise_factor", "NAN"), "");
    EXPECT_TRUE(spec == ExperimentSpec{});
}

TEST(Spec, EveryKeyReportsItsKind)
{
    for (const auto &key : specKeys())
        EXPECT_TRUE(specKeyKind(key).has_value()) << key;
    EXPECT_EQ(specKeyKind("utilization"), SpecKeyKind::Real);
    EXPECT_EQ(specKeyKind("transfers"), SpecKeyKind::Int);
    EXPECT_EQ(specKeyKind("trials"), SpecKeyKind::UInt);
    EXPECT_EQ(specKeyKind("warm"), SpecKeyKind::Bool);
    EXPECT_EQ(specKeyKind("policy"), SpecKeyKind::Text);
    EXPECT_EQ(specKeyKind("no_such_key"), std::nullopt);
}

TEST(Spec, ParseReportsEveryProblem)
{
    const auto parsed =
        parseSpec("experiment=warp n=alpha bogus_key=1 justatoken");
    EXPECT_EQ(parsed.errors.size(), 4u);
    // Valid tokens in the same string still apply.
    const auto partial = parseSpec("n=128 experiment=warp");
    EXPECT_EQ(partial.spec.n, 128);
    EXPECT_EQ(partial.errors.size(), 1u);
}

TEST(Spec, StrictParsingRejectsAtoiGarbage)
{
    // Everything std::atoi would silently coerce to an integer.
    EXPECT_FALSE(parseInt("12abc").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt(" 12").has_value());
    EXPECT_FALSE(parseInt("1.5").has_value());
    EXPECT_FALSE(parseUInt("-3").has_value());
    EXPECT_FALSE(parseDouble("1e").has_value());
    EXPECT_EQ(parseInt("-12"), -12);
    EXPECT_EQ(parseUInt("18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(parseDouble("2.5e-3").value(), 2.5e-3);
}

TEST(Spec, GetAndSetCoverEveryKey)
{
    // Two legal values per key: at least one differs from the
    // default, so printSpec() shows it in its canonical form, and
    // that form parses back to the same spec.
    const std::map<std::string, std::vector<std::string>> text = {
        {"experiment", {"cache", "trace"}},
        {"machine", {"now", "future"}},
        {"code", {"steane", "bacon-shor"}},
        {"workload", {"draper", "ripple"}},
        {"policy", {"inorder", "optimized"}},
    };
    for (const auto &key : specKeys()) {
        EXPECT_NE(specKeyHelp(key), nullptr) << key;
        std::vector<std::string> values;
        switch (specKeyKind(key).value()) {
        case SpecKeyKind::Text: values = text.at(key); break;
        case SpecKeyKind::Real: values = {"0.5", "0.25"}; break;
        case SpecKeyKind::Bool: values = {"0", "1"}; break;
        case SpecKeyKind::Int:
        case SpecKeyKind::UInt: values = {"2", "3"}; break;
        }
        bool printed = false;
        for (const auto &value : values) {
            ExperimentSpec spec;
            ASSERT_EQ(specSet(spec, key, value), "") << key;
            const auto parsed = parseSpec(printSpec(spec));
            ASSERT_TRUE(parsed.ok()) << printSpec(spec);
            EXPECT_TRUE(parsed.spec == spec) << printSpec(spec);
            if (printsToken(spec, key + "=" + value))
                printed = true;
            else
                EXPECT_EQ(printSpec(spec), printSpec(ExperimentSpec{}))
                    << key << "=" << value;
        }
        EXPECT_TRUE(printed) << key;
    }
    ExperimentSpec spec;
    EXPECT_NE(specSet(spec, "no_such_key", "1"), "");
}

TEST(Workloads, RegistryHasThePaperGenerators)
{
    for (const char *name :
         {"draper", "ripple", "modexp", "qft", "random"})
        EXPECT_NE(findWorkload(name), nullptr) << name;
    EXPECT_EQ(findWorkload("bogus"), nullptr);
}

TEST(Workloads, BuildsProgramsWithMetadata)
{
    Random rng(7);
    ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = 32;
    const auto draper = buildWorkload(spec, rng);
    EXPECT_GT(draper.program.size(), 0u);
    ASSERT_EQ(draper.cacheable.size(),
              static_cast<std::size_t>(draper.program.qubitCount()));
    // The data registers are cacheable, the scratch is not.
    EXPECT_TRUE(draper.cacheable[0]);
    EXPECT_FALSE(draper.cacheable.back());
    EXPECT_GT(draper.pe_qubits, 0u);

    spec.workload = "modexp";
    spec.reps = 3;
    const auto modexp = buildWorkload(spec, rng);
    EXPECT_EQ(modexp.program.size(), 3 * draper.program.size());

    spec.workload = "random";
    spec.n = 16;
    spec.gates = 64;
    const auto random = buildWorkload(spec, rng);
    EXPECT_EQ(random.program.size(), 64u);
    EXPECT_TRUE(random.cacheable.empty());
}

TEST(Experiments, ValidateCatchesBadRanges)
{
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Hierarchy;
    spec.n = 5000;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Cache;
    spec.workload = "unknown-generator";
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::MonteCarlo;
    spec.p0 = 0.9;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Bandwidth;
    EXPECT_TRUE(makeExperiment(spec)->validate().empty());
}

TEST(Experiments, OneFaultGetsOneDiagnostic)
{
    // A generator input outside the parser's bounds is reported by the
    // parser alone, not again by the generator's preconditions.
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Trace;
    spec.workload = "random";
    spec.n = 8;
    spec.gates = -1;
    auto diagnostics = makeExperiment(spec)->validate();
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_NE(diagnostics[0].find("gates=-1"), std::string::npos)
        << diagnostics[0];

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Trace;
    spec.workload = "";
    diagnostics = makeExperiment(spec)->validate();
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_NE(diagnostics[0].find("workload"), std::string::npos)
        << diagnostics[0];

    // A fault in a key the generator does not read is still reported
    // beside the generator's own.
    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Trace;
    spec.workload = "random";
    spec.n = 2;
    spec.transfers = 0;
    diagnostics = makeExperiment(spec)->validate();
    ASSERT_EQ(diagnostics.size(), 2u);
    EXPECT_NE(diagnostics[0].find("needs n >= 3"), std::string::npos)
        << diagnostics[0];
    EXPECT_NE(diagnostics[1].find("transfers=0"), std::string::npos)
        << diagnostics[1];
}

TEST(Experiments, DefaultsPassEveryKindUnderEveryGenerator)
{
    // validate() range-checks only the keys printSpec emits, the
    // non-default ones; that is sound only while every default value
    // lies inside every kind's bounds.
    for (const auto &name : experimentKindNames())
        for (const auto &generator : workloadRegistry()) {
            ExperimentSpec spec;
            spec.kind = *parseKind(name);
            const auto keys = kindKeys(spec.kind);
            if (std::find(keys.begin(), keys.end(), "workload") !=
                keys.end())
                spec.workload = generator.name;
            EXPECT_TRUE(makeExperiment(spec)->validate().empty())
                << printSpec(spec);
        }
}

TEST(Experiments, EveryKindRunsAndMatchesItsColumns)
{
    for (const char *text :
         {"experiment=hierarchy n=64 transfers=5",
          "experiment=cache workload=draper n=32",
          "experiment=bandwidth blocks=36",
          "experiment=montecarlo trials=2000",
          "experiment=trace workload=draper n=32 blocks=8 "
          "transfers=4 capacity=24"}) {
        const auto parsed = parseSpec(text);
        ASSERT_TRUE(parsed.ok()) << text;
        const auto experiment = makeExperiment(parsed.spec);
        EXPECT_TRUE(experiment->validate().empty()) << text;
        Random rng(42);
        const auto row = experiment->run(rng);
        EXPECT_EQ(row.size(), experiment->columns().size()) << text;
        EXPECT_EQ(experiment->columns().front(), "spec");
        // The first cell re-parses to the spec that produced it.
        const auto reparsed = parseSpec(row.front().toString());
        ASSERT_TRUE(reparsed.ok()) << text;
        EXPECT_TRUE(reparsed.spec == parsed.spec) << text;
    }
}

TEST(SpecGrid, ExpandsCrossProductInAxisOrder)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=cache workload=draper").spec;
    grid.axis("n", {"16", "32"});
    grid.axis("policy", {"inorder", "optimized"});
    grid.axis("warm", {"0", "1"});
    EXPECT_EQ(grid.points(), 8u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    // First axis slowest, last fastest.
    EXPECT_EQ(specs[0].n, 16);
    EXPECT_FALSE(specs[0].warm);
    EXPECT_TRUE(specs[1].warm);
    EXPECT_EQ(specs[1].policy, cache::FetchPolicy::InOrder);
    EXPECT_EQ(specs[2].policy, cache::FetchPolicy::OptimizedLookahead);
    EXPECT_EQ(specs[4].n, 32);
    // Un-swept axes keep the base value everywhere.
    for (const auto &spec : specs)
        EXPECT_EQ(spec.workload, "draper");
}

TEST(SpecGrid, AddAxisParsesAndRejects)
{
    SpecGrid grid;
    EXPECT_EQ(grid.addAxis("n=64,128,256"), "");
    ASSERT_EQ(grid.axes.size(), 1u);
    EXPECT_EQ(grid.axes[0].values.size(), 3u);
    EXPECT_NE(grid.addAxis("n=64,,128"), "");
    EXPECT_NE(grid.addAxis("bogus=1"), "");
    EXPECT_NE(grid.addAxis("n=notanumber"), "");
    EXPECT_NE(grid.addAxis("justatoken"), "");
    EXPECT_EQ(grid.axes.size(), 1u);
    EXPECT_TRUE(grid.validate().empty());
}

TEST(SpecGrid, ValidateFlagsBadValues)
{
    SpecGrid grid;
    grid.axis("n", {"16", "oops"});
    grid.axis("unknown", {"1"});
    EXPECT_EQ(grid.validate().size(), 2u);
}

TEST(SpecGrid, RejectsARepeatedKeyAndAnOversizedGrid)
{
    // 64 binary axes hold 2^64 points: the count saturates instead of
    // wrapping to 0, and the grid is refused instead of expanded.
    SpecGrid grid;
    grid.base = parseSpec("experiment=cache n=8").spec;
    for (int i = 0; i < 64; ++i)
        grid.axis("warm", {"0", "1"});
    EXPECT_EQ(grid.points(), SpecGrid::max_points + 1);
    const std::vector<std::string> expect = {
        "axis 'warm' is swept twice", "grid has more than 1000000 points"};
    EXPECT_EQ(grid.validate(), expect);

    SpecGrid parsed;
    parsed.base = grid.base;
    EXPECT_EQ(parsed.addAxis("warm=0,1"), "");
    EXPECT_EQ(parsed.addAxis("warm=0,1"), "axis 'warm' is swept twice");
    // Distinct keys are refused once their product passes the bound.
    std::string n_axis = "n=1";
    std::string gates_axis = "gates=1";
    for (int v = 2; v <= 1000; ++v) {
        n_axis += "," + std::to_string(v);
        gates_axis += "," + std::to_string(v);
    }
    EXPECT_EQ(parsed.addAxis(n_axis), "");
    EXPECT_NE(parsed.addAxis(gates_axis).find("grid has more than"),
              std::string::npos);
    EXPECT_EQ(parsed.points(), 2000u);
    EXPECT_TRUE(parsed.validate().empty());
}

TEST(SpecSweep, CacheGridBitIdenticalAcrossThreadCounts)
{
    // The acceptance sweep: a *cache* experiment grid (random
    // workload, so the per-point RNG stream matters) must emit a
    // bit-identical table on 1 vs N threads. So must a hierarchy grid
    // over the Table 5 design space (code x size x channels x blocks).
    SpecGrid grid;
    grid.base =
        parseSpec("experiment=cache workload=random n=24 gates=400")
            .spec;
    grid.axis("capacity", {"6", "12", "18"});
    grid.axis("policy", {"inorder", "optimized"});
    grid.axis("warm", {"0", "1"});
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 12u);

    SpecGrid hierarchy;
    hierarchy.base = parseSpec("experiment=hierarchy").spec;
    hierarchy.axis("code", {"steane", "bacon-shor"});
    hierarchy.axis("n", {"64", "128"});
    hierarchy.axis("transfers", {"5", "10"});
    hierarchy.axis("blocks", {"25", "49", "100"});
    const auto hierarchy_specs = hierarchy.expand();
    ASSERT_EQ(hierarchy_specs.size(), 24u);

    // The 1-thread table, checked against 2, 4 and 8 threads.
    const auto pinned = [](const std::vector<ExperimentSpec> &points) {
        const auto serial =
            tests::runTable(points, {.threads = 1, .base_seed = 99});
        EXPECT_EQ(serial.rows(), points.size());
        for (const unsigned threads : {2u, 4u, 8u}) {
            const auto parallel = tests::runTable(
                points, {.threads = threads, .base_seed = 99});
            EXPECT_EQ(csvOf(serial), csvOf(parallel))
                << threads << " threads diverged on "
                << printSpec(points.front());
        }
        return serial;
    };
    pinned(hierarchy_specs);
    const auto serial = pinned(specs);
    // The random workload really is seed-sensitive: a different base
    // seed must change the table (hit counts differ).
    const auto other =
        tests::runTable(specs, {.threads = 2, .base_seed = 100});
    EXPECT_NE(csvOf(serial), csvOf(other));
}

TEST(SpecSweep, TableShapeAndSeeds)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=bandwidth").spec;
    grid.axis("blocks", {"10", "20", "30"});
    const auto table =
        tests::runTable(grid.expand(), {.threads = 2, .base_seed = 5});
    ASSERT_EQ(table.rows(), 3u);
    EXPECT_EQ(table.columnNames().front(), "spec");
    EXPECT_EQ(table.columnNames().back(), "seed");
    const auto seed_col = table.findColumn("seed");
    ASSERT_TRUE(seed_col.has_value());
    for (std::size_t r = 0; r < table.rows(); ++r)
        EXPECT_EQ(table.cell(r, *seed_col).toString(),
                  std::to_string(sweep::pointSeed(5, r)));
    const auto blocks_col = table.findColumn("blocks");
    ASSERT_TRUE(blocks_col.has_value());
    EXPECT_EQ(table.cell(2, *blocks_col).toString(), "30");
}

TEST(SpecSweep, EmptySpecListYieldsEmptyTable)
{
    const auto table = tests::runTable({}, {.threads = 1});
    EXPECT_EQ(table.rows(), 0u);
}

TEST(SpecSweep, HierarchyRowsEqualTheModelAtTable5Points)
{
    // The facade is a veneer: at each of the paper's 12 Table-5
    // points a hierarchy row equals HierarchyModel::row() cell for
    // cell.
    SpecGrid grid;
    grid.base = parseSpec("experiment=hierarchy").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("transfers", {"10", "5"});
    std::vector<ExperimentSpec> specs;
    for (auto spec : grid.expand())
        for (const int n : {256, 512, 1024}) {
            spec.n = n;
            spec.blocks = cqla::HierarchyModel::paperBlocks(n).value();
            specs.push_back(spec);
        }
    ASSERT_EQ(specs.size(), 12u);
    const auto table = tests::runTable(specs, {.threads = 2});
    ASSERT_EQ(table.rows(), specs.size());

    cqla::HierarchyModel model(iontrap::Params::future());
    const auto number = [&](std::size_t row, const char *column) {
        return table.cell(row, *table.findColumn(column)).asNumber();
    };
    for (std::size_t r = 0; r < specs.size(); ++r) {
        const auto &spec = specs[r];
        const auto code = ecc::Code::byKind(spec.code);
        const auto direct =
            model.row(code, spec.n, spec.transfers, spec.blocks);
        SCOPED_TRACE(printSpec(spec));
        EXPECT_EQ(table.cell(r, *table.findColumn("code")).toString(),
                  code.name());
        EXPECT_EQ(number(r, "n"), direct.n_bits);
        EXPECT_EQ(number(r, "transfers"), direct.parallel_transfers);
        EXPECT_EQ(number(r, "blocks"), direct.blocks);
        EXPECT_EQ(number(r, "level1_speedup"), direct.level1_speedup);
        EXPECT_EQ(number(r, "level2_speedup"), direct.level2_speedup);
        EXPECT_EQ(number(r, "level1_add_fraction"),
                  direct.level1_add_fraction);
        EXPECT_EQ(number(r, "adder_speedup"), direct.adder_speedup);
        EXPECT_EQ(number(r, "area_reduced"), direct.area_reduced);
        EXPECT_EQ(number(r, "gain_product"), direct.gain_product);
    }
}

/** CSV of a one-point run of @p text at base seed 9, plus one line
 *  of the row's cell type tags (the result-cache log stores them). */
std::string
goldenOf(const char *text)
{
    const auto parsed = parseSpec(text);
    EXPECT_TRUE(parsed.ok()) << text;
    const auto table = tests::runTable({parsed.spec},
                                         {.threads = 1, .base_seed = 9});
    std::string tags;
    for (std::size_t c = 0; c < table.columns() && table.rows(); ++c)
        tags += table.cell(0, c).typeTag();
    return csvOf(table) + tags + "\n";
}

// Golden rows of the four non-trace kinds (TraceGolden pins trace):
// every column name, formatted value and Cell alternative, so a
// refactor of how rows are assembled must reproduce them exactly.

TEST(KindGolden, HierarchyRowAndTagsMatchCheckedIn)
{
    EXPECT_EQ(
        goldenOf("experiment=hierarchy code=bacon-shor n=64 transfers=5 "
                 "blocks=25"),
        "spec,code,n,transfers,blocks,level1_speedup,level2_speedup,"
        "level1_add_fraction,adder_speedup,area_reduced,gain_product,"
        "seed\n"
        "experiment=hierarchy code=bacon-shor n=64 transfers=5 "
        "blocks=25,\"Bacon-Shor [[9,1,3]]\",64,5,25,3.636336796524625,"
        "2.9994001799460155,0.6666666666666666,3.4240245909984215,"
        "3.5325904647487403,12.095676621226229,12587370737594032228\n"
        "ssiuuddddddu\n");
}

TEST(KindGolden, CacheRowAndTagsMatchCheckedIn)
{
    EXPECT_EQ(
        goldenOf("experiment=cache workload=modexp n=32 reps=2 "
                 "capacity_x=0.25 policy=inorder mask_data=0"),
        "spec,workload,n,capacity,policy,warm,accesses,hits,misses,"
        "evictions,hit_rate,seed\n"
        "experiment=cache workload=modexp n=32 reps=2 capacity_x=0.25 "
        "policy=inorder mask_data=0,modexp,32,20,in-order,0,1158,102,"
        "1056,1036,0.08808290155440414,12587370737594032228\n"
        "ssiusiuuuudu\n");
}

TEST(KindGolden, BandwidthRowAndTagsMatchCheckedIn)
{
    EXPECT_EQ(
        goldenOf("experiment=bandwidth code=bacon-shor level=3 "
                 "blocks=300 utilization=0.5"),
        "spec,code,level,blocks,utilization,required_worst_qps,"
        "required_draper_qps,available_qps,crossover_blocks,seed\n"
        "experiment=bandwidth code=bacon-shor blocks=300 level=3 "
        "utilization=0.5,\"Bacon-Shor [[9,1,3]]\",3,300,0.5,"
        "21.59992224027993,7.199974080093311,4.988288367960242,145,"
        "12587370737594032228\n"
        "ssiudddduu\n");
}

TEST(KindGolden, MonteCarloRowAndTagsMatchCheckedIn)
{
    EXPECT_EQ(
        goldenOf("experiment=montecarlo level=1 p0=0.002 trials=5000 "
                 "noise_factor=3"),
        "spec,code,level,p0,trials,failures,mc_rate,mc_std_error,"
        "analytic_rate,seed\n"
        "experiment=montecarlo level=1 p0=0.002 trials=5000 "
        "noise_factor=3,\"Steane [[7,1,3]]\",1,0.002,5000,5,0.001,"
        "0.0004469899327725402,0.0008190046926035977,"
        "12587370737594032228\n"
        "ssiduudddu\n");
}

} // namespace
} // namespace api
} // namespace qmh
