/**
 * @file
 * Quantum cache simulator (paper Section 5.2, Fig. 7).
 *
 * The cache holds logical qubits at level-1 encoding next to the
 * level-1 compute region; memory holds them at level 2. An instruction
 * can only execute when its operands are cached; a miss costs a
 * code-transfer from memory. Replacement is least-recently-used.
 *
 * The residency state (LRU cache + cacheability mask + hit/miss
 * counters) lives in CacheState, steppable one instruction at a time,
 * so external engines — the trace engine's event-driven pipeline
 * (trace/engine.hh) in particular — can drive residency from their
 * own issue loop. simulateCache() keeps the whole-program driver with
 * its two fetch policies on top of that state:
 *
 *  - InOrder: issue the instruction stream as written (the paper
 *    measures ~20% hit rate on the Draper adder);
 *  - OptimizedLookahead: with static scheduling the fetch window is
 *    the whole program, so the simulator builds the dependency list
 *    and greedily issues the ready instruction with the most operands
 *    already cached (~85% in the paper, roughly independent of adder
 *    and cache size).
 */

#ifndef QMH_CACHE_CACHE_SIM_HH
#define QMH_CACHE_CACHE_SIM_HH

#include <cstdint>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/program.hh"

namespace qmh {
namespace cache {

/** Instruction selection policy. */
enum class FetchPolicy {
    InOrder,
    OptimizedLookahead
};

/** Human-readable policy name. */
const char *fetchPolicyName(FetchPolicy policy);

/** Fully-associative LRU cache of logical qubits. */
class QubitCache
{
  public:
    /** @p qubit_ids sizes the id index up front (ids beyond it still
     *  work, growing the index on first touch). */
    explicit QubitCache(std::size_t capacity, std::size_t qubit_ids = 0);

    /**
     * Access @p qubit: returns true on hit. On miss the qubit is
     * brought in, evicting the least-recently-used entry if full.
     * When @p evicted is non-null the victim (if any) is appended to
     * it, so engines can charge writeback traffic for what falls out.
     */
    bool touch(circuit::QubitId qubit,
               std::vector<circuit::QubitId> *evicted = nullptr);

    /** Non-mutating lookup. */
    bool contains(circuit::QubitId qubit) const;

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return _nodes.size(); }

    /**
     * Resident qubits in recency order, most recent first. Read from
     * the LRU list — a deterministic function of the access history —
     * never from the unordered index, so persisting or printing the
     * residency set cannot leak hash-map layout.
     */
    std::vector<circuit::QubitId> residents() const;

  private:
    static constexpr std::uint32_t npos = ~0u;

    /** One resident qubit threaded into the recency list. */
    struct Node {
        circuit::QubitId qubit;
        std::uint32_t prev;
        std::uint32_t next;
    };

    void unlink(std::uint32_t n);
    void linkFront(std::uint32_t n);

    std::size_t _capacity;
    // Flat intrusive LRU: prev/next indices threaded through one node
    // array (MRU at _head), with a dense qubit-id -> node index map.
    // touch() is O(1) with zero allocation once the id map is sized;
    // eviction reuses the victim's node slot in place.
    std::vector<Node> _nodes;
    std::vector<std::uint32_t> _where;
    std::uint32_t _head = npos;
    std::uint32_t _tail = npos;
};

/**
 * Steppable cache residency: the LRU cache, the per-qubit
 * cacheability mask and the access counters, decoupled from any
 * instruction-selection loop. Callers decide which instruction issues
 * next (a fetch policy, or the trace engine's list scheduler) and
 * step the state with access().
 */
class CacheState
{
  public:
    /**
     * @param capacity cached logical qubits (must be nonzero)
     * @param cacheable per-qubit mask: qubits outside the mask are
     *        compute-block-local scratch that never crosses the
     *        memory hierarchy; empty means every qubit is cacheable
     * @param qubit_ids the program's qubit count, when known, so the
     *        residency index is sized once instead of per new id
     */
    CacheState(std::size_t capacity, std::vector<bool> cacheable,
               std::size_t qubit_ids = 0);

    /** True when @p qubit participates in the memory hierarchy. */
    bool
    isCacheable(circuit::QubitId qubit) const
    {
        return _cacheable.empty() || _cacheable[qubit.value()];
    }

    /** True when @p qubit is cacheable and currently resident. */
    bool
    resident(circuit::QubitId qubit) const
    {
        return isCacheable(qubit) && _cache.contains(qubit);
    }

    /**
     * Set @p out (cleared first) to the cacheable operands of @p inst
     * not currently resident — the transfers an issue of @p inst
     * would trigger. Non-mutating; @p out is a caller-owned scratch
     * vector, so per-gate issue loops reuse its capacity.
     */
    void missingOperandsInto(const circuit::Instruction &inst,
                             std::vector<circuit::QubitId> &out) const;

    /**
     * Issue @p inst against the cache: touch every cacheable operand,
     * counting hits and misses; missing operands are brought in
     * (evicting LRU entries when full). Sets @p evicted (a
     * caller-owned scratch vector, cleared first) to the qubits this
     * access evicted, in eviction order — the writeback traffic the
     * issue generated.
     */
    void accessInto(const circuit::Instruction &inst,
                    std::vector<circuit::QubitId> &evicted);

    /** Reset the access counters, keeping residency (warm start). */
    void resetCounters();

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    const QubitCache &cache() const { return _cache; }

  private:
    QubitCache _cache;
    std::vector<bool> _cacheable;
    std::uint64_t _accesses = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

/** Result of a cache simulation run. */
struct CacheSimResult
{
    std::uint64_t accesses = 0;   ///< operand touches
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    FetchPolicy policy{};
    std::size_t capacity = 0;

    /** Order in which instructions were issued. */
    std::vector<std::uint32_t> issue_order;

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Run the cache simulation of @p program with a cache of
 * @p capacity logical qubits under @p policy.
 *
 * @param warm_start when true the program is run once beforehand to
 *        warm the cache (steady-state behaviour of repeated additions
 *        in modular exponentiation)
 * @param cacheable optional per-qubit mask: qubits outside the mask
 *        are compute-block-local scratch (Toffoli workspace, carry
 *        ancilla) that never crosses the memory hierarchy; empty means
 *        every qubit is cacheable
 * @param dag the program's dependency DAG when the caller already has
 *        one; the lookahead policy builds its own otherwise
 */
CacheSimResult simulateCache(const circuit::Program &program,
                             std::size_t capacity, FetchPolicy policy,
                             bool warm_start = false,
                             const std::vector<bool> &cacheable = {},
                             const circuit::DependencyGraph *dag = nullptr);

} // namespace cache
} // namespace qmh

#endif // QMH_CACHE_CACHE_SIM_HH
