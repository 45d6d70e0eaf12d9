#include "cached_sweep.hh"

#include <unordered_map>

#include "api/session.hh"
#include "common/logging.hh"

namespace qmh {
namespace opt {

CachedSweepOutcome
runSpecSweepCached(sweep::SweepRunner &runner,
                   const std::vector<api::ExperimentSpec> &specs,
                   ResultCache *cache,
                   const CachedSweepControl &control)
{
    CachedSweepOutcome outcome;
    if (specs.empty())
        return outcome;

    // Validation keeps the documented panic contract and yields the
    // experiments themselves; the misses are moved into the session
    // below rather than rebuilt from their specs.
    auto validated = api::validateExperiments(specs);
    if (!validated.ok())
        qmh_panic("runSpecSweepCached: ", validated.error().describe());
    auto experiments = std::move(validated).value();
    const auto columns = experiments.front()->columns();
    // Every store, backed or not, holds rows seeded from its own base
    // seed; replaying them to a runner with another seed would hand
    // back rows a fresh run could not reproduce.
    const std::uint64_t base_seed = runner.options().base_seed;
    if (cache && cache->baseSeed() != base_seed)
        qmh_panic("runSpecSweepCached: the cache holds rows for base "
                  "seed ", cache->baseSeed(), " but the runner uses ",
                  base_seed);

    // Resolve every point to a row source first: cache hit, duplicate
    // of an earlier point in this very list, or a fresh simulation.
    struct Source
    {
        std::uint64_t seed = 0;
        std::optional<CachedResult> hit;    // cache replay
        std::size_t dup_of = 0;             // earlier identical spec
        bool dup = false;
    };
    // Rows are incorporated strictly in spec order below, so a
    // row_limit statically caps which specs can ever be consumed:
    // misses past the cap are not even submitted (on_row can only
    // cut *earlier* than the limit, never later).
    const std::size_t incorporable =
        control.row_limit
            ? std::min(control.row_limit, specs.size())
            : specs.size();

    std::vector<Source> sources(specs.size());
    std::vector<std::string> keys(specs.size());
    std::unordered_map<std::string, std::size_t> first_index;
    std::vector<std::unique_ptr<api::Experiment>> miss_experiments;
    std::vector<std::uint64_t> miss_seeds;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        keys[i] = api::printSpec(specs[i]);
        auto &source = sources[i];
        source.seed = specSeed(base_seed, keys[i]);
        if (auto hit = cache ? cache->lookup(keys[i]) : std::nullopt;
            hit && hit->row.size() == columns.size() &&
            hit->seed == source.seed) {
            // A width or seed mismatch means the entry predates a
            // schema or seeding change; fall through and re-simulate
            // rather than replay a row that a cold run could not
            // reproduce.
            source.hit = std::move(hit);
            continue;
        }
        if (const auto [it, fresh] = first_index.emplace(keys[i], i);
            !fresh) {
            source.dup = true;
            source.dup_of = it->second;
            continue;
        }
        if (i < incorporable) {
            miss_experiments.push_back(std::move(experiments[i]));
            miss_seeds.push_back(source.seed);
        }
    }

    // Fan only the misses across the pool, as one session job with
    // spec-addressed seeds so a row does not depend on this batch's
    // composition, ordering, or the grid index it came from.
    api::Session session(runner);
    api::SubmitOptions submit_options;
    submit_options.seeds = std::move(miss_seeds);
    auto submitted = session.submit(std::move(miss_experiments),
                                    std::move(submit_options));
    if (!submitted.ok())
        qmh_panic("runSpecSweepCached: ",
                  submitted.error().describe());
    auto job = submitted.value();

    auto labelled = columns;
    labelled.emplace_back("seed");
    sweep::ResultTable table(std::move(labelled));

    // Incorporate rows strictly in spec order. Misses stream from
    // the job in exactly that order (they were submitted in it), so
    // a cutoff leaves a deterministic prefix; upserts happen at
    // incorporation time, which keeps the cache content a function
    // of the incorporated prefix alone.
    std::size_t incorporated = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto &source = sources[i];
        std::vector<sweep::Cell> row;
        if (source.hit) {
            row = std::move(source.hit->row);
            row.emplace_back(source.seed);
            ++outcome.cached;
        } else if (source.dup) {
            // One row per spec in spec order: the first occurrence
            // already sits at table row dup_of, so read it back
            // rather than keeping a parallel copy of every row.
            row.reserve(table.columns());
            for (std::size_t c = 0; c < table.columns(); ++c)
                row.push_back(table.cell(source.dup_of, c));
            ++outcome.cached;
        } else {
            auto streamed = job.nextRow();
            if (!streamed) {
                const auto failure = job.wait().failure;
                qmh_panic(
                    "runSpecSweepCached: the sweep job ended before "
                    "spec ", i, " ('", keys[i], "')",
                    failure ? ": " + failure->describe()
                            : std::string());
            }
            row = std::move(*streamed);
            if (cache) {
                // Strip the trailing seed column the session appends;
                // the cache stores bare kind rows keyed by (spec,
                // seed), exactly as a cold engine run produces them.
                std::vector<sweep::Cell> bare(row.begin(),
                                              row.end() - 1);
                cache->upsert(keys[i], source.seed, std::move(bare));
            }
            ++outcome.simulated;
        }
        table.addRow(std::move(row));
        ++incorporated;
        // Observe before cutting: the callback sees every
        // incorporated row, the limit row included.
        if (control.on_row &&
            !control.on_row(incorporated, specs.size()))
            break;
        if (control.row_limit && incorporated >= control.row_limit)
            break;
    }
    outcome.cancelled = incorporated < specs.size();
    if (outcome.cancelled)
        job.cancel();

    outcome.table = std::move(table);
    return outcome;
}

} // namespace opt
} // namespace qmh
