/**
 * @file
 * Small-buffer-optimized move-only callable.
 *
 * std::function heap-allocates any closure larger than its tiny
 * internal buffer (16 bytes on libstdc++), which puts an allocation on
 * every event and every port completion of the simulation hot path.
 * SmallFunction<N> stores closures up to N bytes inline — simulation
 * callbacks capture a handful of pointers and a claim record, well
 * within a fixed budget — and falls back to the heap only for
 * oversized closures, reporting that it did so through
 * heapAllocated() so callers (the EventQueue arena) can count
 * fallbacks and tests can pin the steady state to zero. Inline
 * storage is pointer-aligned, so closures with stricter alignment
 * (a long double, say) spill too.
 *
 * Move-only by design: simulation callbacks are dispatched exactly
 * once and never copied, and move-only closures (owning a moved-in
 * buffer, say) must be storable.
 */

#ifndef QMH_COMMON_SMALL_FUNCTION_HH
#define QMH_COMMON_SMALL_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace qmh {
namespace common {

/** Move-only `void()` callable with @p InlineSize bytes of inline
 * closure storage and a counted heap fallback beyond it. */
template <std::size_t InlineSize>
class SmallFunction
{
  public:
    /** Inline closure budget in bytes. */
    static constexpr std::size_t inline_size = InlineSize;

    SmallFunction() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunction> &&
                  std::is_invocable_v<D &>>>
    SmallFunction(F &&fn)  // NOLINT: implicit from any callable
    {
        if constexpr (fitsInline<D>() &&
                      std::is_trivially_copyable_v<D> &&
                      std::is_trivially_destructible_v<D>) {
            // Trivial inline closure (the simulation hot path: a
            // couple of pointers and ints). _manage stays null as the
            // marker: moves are a raw buffer copy and destruction is
            // a no-op, so the per-event indirect manage calls
            // disappear entirely.
            InlineTraits<D>::construct(_storage, std::forward<F>(fn));
            _invoke = &InlineTraits<D>::invoke;
        } else {
            using Traits = std::conditional_t<fitsInline<D>(),
                                              InlineTraits<D>,
                                              HeapTraits<D>>;
            Traits::construct(_storage, std::forward<F>(fn));
            _invoke = &Traits::invoke;
            _manage = &Traits::manage;
            _heap = !fitsInline<D>();
        }
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return _invoke != nullptr; }

    /** True when the stored closure spilled to the heap. */
    bool heapAllocated() const { return _heap; }

    /** Invoke the stored callable (undefined when empty). */
    void
    operator()()
    {
        _invoke(_storage);
    }

  private:
    enum class Op { MoveTo, Destroy };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= InlineSize &&
               alignof(D) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    struct InlineTraits
    {
        template <typename F>
        static void
        construct(void *storage, F &&fn)
        {
            ::new (storage) D(std::forward<F>(fn));
        }
        static void
        invoke(void *storage)
        {
            (*std::launder(reinterpret_cast<D *>(storage)))();
        }
        static void
        manage(Op op, void *storage, void *other)
        {
            D *self = std::launder(reinterpret_cast<D *>(storage));
            if (op == Op::MoveTo)
                ::new (other) D(std::move(*self));
            self->~D();
        }
    };

    template <typename D>
    struct HeapTraits
    {
        template <typename F>
        static void
        construct(void *storage, F &&fn)
        {
            ::new (storage) (D *)(new D(std::forward<F>(fn)));
        }
        static D *&
        slot(void *storage)
        {
            return *std::launder(reinterpret_cast<D **>(storage));
        }
        static void
        invoke(void *storage)
        {
            (*slot(storage))();
        }
        static void
        manage(Op op, void *storage, void *other)
        {
            if (op == Op::MoveTo)
                ::new (other) (D *)(slot(storage));
            else
                delete slot(storage);
        }
    };

    void
    reset()
    {
        if (_manage)
            _manage(Op::Destroy, _storage, nullptr);
        _invoke = nullptr;
        _manage = nullptr;
        _heap = false;
    }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        if (!other._invoke)
            return;
        if (other._manage)
            other._manage(Op::MoveTo, other._storage, _storage);
        else
            // Trivial closure: the whole inline buffer is copyable
            // bytes (unsigned char, so the uninitialized tail is fine
            // to copy), and a fixed-size memcpy inlines to a few
            // vector moves.
            std::memcpy(_storage, other._storage, InlineSize);
        _invoke = other._invoke;
        _manage = other._manage;
        _heap = other._heap;
        other._invoke = nullptr;
        other._manage = nullptr;
        other._heap = false;
    }

    using Invoke = void (*)(void *);
    using Manage = void (*)(Op, void *, void *);

    Invoke _invoke = nullptr;
    Manage _manage = nullptr;
    bool _heap = false;
    // Pointer-aligned, so the object is three words plus the buffer
    // (a 32-byte budget makes 56 bytes); over-aligned closures spill.
    alignas(void *) unsigned char _storage[InlineSize];
};

} // namespace common
} // namespace qmh

#endif // QMH_COMMON_SMALL_FUNCTION_HH
