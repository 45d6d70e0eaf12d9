#include "cache_sim.hh"

#include <optional>

#include "common/logging.hh"

namespace qmh {
namespace cache {

const char *
fetchPolicyName(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::InOrder:
        return "in-order";
      case FetchPolicy::OptimizedLookahead:
        return "optimized";
    }
    qmh_panic("unknown FetchPolicy");
}

QubitCache::QubitCache(std::size_t capacity, std::size_t qubit_ids)
    : _capacity(capacity), _where(qubit_ids, npos)
{
    if (capacity == 0)
        qmh_fatal("QubitCache: capacity must be nonzero");
}

void
QubitCache::unlink(std::uint32_t n)
{
    const auto &node = _nodes[n];
    if (node.prev != npos)
        _nodes[node.prev].next = node.next;
    else
        _head = node.next;
    if (node.next != npos)
        _nodes[node.next].prev = node.prev;
    else
        _tail = node.prev;
}

void
QubitCache::linkFront(std::uint32_t n)
{
    auto &node = _nodes[n];
    node.prev = npos;
    node.next = _head;
    if (_head != npos)
        _nodes[_head].prev = n;
    else
        _tail = n;
    _head = n;
}

bool
QubitCache::touch(circuit::QubitId qubit,
                  std::vector<circuit::QubitId> *evicted)
{
    const auto id = qubit.value();
    if (id >= _where.size())
        _where.resize(id + 1, npos);
    auto n = _where[id];
    if (n != npos) {
        if (_head != n) {
            unlink(n);
            linkFront(n);
        }
        return true;
    }
    if (_nodes.size() >= _capacity) {
        // Evict the LRU entry and reuse its node slot in place.
        n = _tail;
        const auto victim = _nodes[n].qubit;
        _where[victim.value()] = npos;
        if (evicted)
            evicted->push_back(victim);
        unlink(n);
        _nodes[n].qubit = qubit;
    } else {
        n = static_cast<std::uint32_t>(_nodes.size());
        _nodes.push_back({qubit, npos, npos});
    }
    _where[id] = n;
    linkFront(n);
    return false;
}

bool
QubitCache::contains(circuit::QubitId qubit) const
{
    return qubit.value() < _where.size() &&
           _where[qubit.value()] != npos;
}

CacheState::CacheState(std::size_t capacity,
                       std::vector<bool> cacheable,
                       std::size_t qubit_ids)
    : _cache(capacity, qubit_ids), _cacheable(std::move(cacheable))
{
}

void
CacheState::missingOperandsInto(
    const circuit::Instruction &inst,
    std::vector<circuit::QubitId> &out) const
{
    out.clear();
    for (const auto &q : inst.operands())
        if (isCacheable(q) && !_cache.contains(q))
            out.push_back(q);
}

void
CacheState::accessInto(const circuit::Instruction &inst,
                       std::vector<circuit::QubitId> &evicted)
{
    evicted.clear();
    for (const auto &q : inst.operands()) {
        if (!isCacheable(q))
            continue;
        ++_accesses;
        if (_cache.touch(q, &evicted))
            ++_hits;
        else
            ++_misses;
    }
    _evictions += evicted.size();
}

void
CacheState::resetCounters()
{
    _accesses = 0;
    _hits = 0;
    _misses = 0;
    _evictions = 0;
}

namespace {

/** Scratch for the qubits one issue evicts; the drivers ignore them. */
using Evicted = std::vector<circuit::QubitId>;

/** Issue one instruction through the state, recording the order. */
void
issue(const circuit::Instruction &inst, CacheState &state,
      CacheSimResult &result, std::uint32_t index, Evicted &evicted)
{
    state.accessInto(inst, evicted);
    result.issue_order.push_back(index);
}

void
runInOrder(const circuit::Program &program, CacheState &state,
           CacheSimResult &result, Evicted &evicted)
{
    const auto &insts = program.instructions();
    for (std::uint32_t i = 0; i < insts.size(); ++i)
        issue(insts[i], state, result, i, evicted);
}

void
runOptimized(const circuit::Program &program,
             const circuit::DependencyGraph &dag, CacheState &state,
             CacheSimResult &result, Evicted &evicted)
{
    const auto &insts = program.instructions();
    const auto m = static_cast<std::uint32_t>(insts.size());

    std::vector<int> remaining(m);
    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < m; ++i) {
        remaining[i] = dag.inDegree(i);
        if (remaining[i] == 0)
            ready.push_back(i);
    }

    std::uint32_t issued = 0;
    while (issued < m) {
        if (ready.empty())
            qmh_panic("cache sim deadlock: ", m - issued,
                      " instructions blocked");
        // Greedy selection: most operands already cached; ties go to
        // the oldest instruction so progress matches program order.
        std::size_t best_pos = 0;
        int best_cached = -1;
        std::uint32_t best_index = 0;
        for (std::size_t pos = 0; pos < ready.size(); ++pos) {
            const auto idx = ready[pos];
            int cached = 0;
            int relevant = 0;
            for (const auto &q : insts[idx].operands()) {
                if (!state.isCacheable(q))
                    continue;
                ++relevant;
                cached += state.resident(q) ? 1 : 0;
            }
            // Normalize by arity: an instruction with all cacheable
            // operands resident beats one with some missing.
            const int missing = relevant - cached;
            const int score = 1000 * (missing == 0) + cached * 10 -
                              missing;
            if (best_cached < 0 || score > best_cached ||
                (score == best_cached && idx < best_index)) {
                best_cached = score;
                best_pos = pos;
                best_index = idx;
            }
        }

        const auto idx = ready[best_pos];
        ready[best_pos] = ready.back();
        ready.pop_back();
        issue(insts[idx], state, result, idx, evicted);
        ++issued;
        for (const auto s : dag.successors(idx)) {
            if (--remaining[s] == 0)
                ready.push_back(s);
        }
    }
}

} // namespace

CacheSimResult
simulateCache(const circuit::Program &program, std::size_t capacity,
              FetchPolicy policy, bool warm_start,
              const std::vector<bool> &cacheable,
              const circuit::DependencyGraph *dag)
{
    if (!cacheable.empty() &&
        cacheable.size() != static_cast<std::size_t>(program.qubitCount()))
        qmh_fatal("simulateCache: cacheable mask size ", cacheable.size(),
                  " != qubit count ", program.qubitCount());
    CacheState state(capacity, cacheable,
                     static_cast<std::size_t>(program.qubitCount()));
    std::optional<circuit::DependencyGraph> own_dag;
    if (policy == FetchPolicy::OptimizedLookahead && dag == nullptr)
        dag = &own_dag.emplace(program);
    CacheSimResult result;
    result.policy = policy;
    result.capacity = capacity;

    Evicted evicted;
    for (int pass = warm_start ? 0 : 1; pass < 2; ++pass) {
        state.resetCounters();
        result.issue_order.clear();
        if (policy == FetchPolicy::InOrder)
            runInOrder(program, state, result, evicted);
        else
            runOptimized(program, *dag, state, result, evicted);
    }
    result.accesses = state.accesses();
    result.hits = state.hits();
    result.misses = state.misses();
    result.evictions = state.evictions();
    return result;
}

} // namespace cache
} // namespace qmh
