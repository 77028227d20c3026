/**
 * @file
 * Trivially copyable type-erased callable, the event kernel's and the
 * memory system's callback representation.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * and the timing simulator schedules tens of millions of events whose
 * captures are a pointer plus a few words. SmallFunction<N> is N
 * bytes of inline capture storage plus one invoke pointer. Its
 * constructor admits only captures that are trivially copyable,
 * trivially destructible, at most N bytes and at most
 * max_align_t-aligned, so an owning or oversized capture is a compile
 * error rather than a heap allocation. The callable itself is then
 * trivially copyable: the timing wheel, the DRAM queues and the MSHR
 * table move callbacks as plain bytes, with no relocate or destroy
 * call, and a copy owns nothing that could be freed twice.
 */

#ifndef SGCN_SIM_SMALL_FUNCTION_HH
#define SGCN_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>

namespace sgcn
{

/** Trivially copyable type-erased void() callable with
 *  @p InlineBytes of inline capture storage. */
template <std::size_t InlineBytes>
class SmallFunction
{
  public:
    SmallFunction() = default;
    SmallFunction(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<F, SmallFunction> &&
                 std::is_invocable_r_v<void, F &> &&
                 std::is_trivially_copyable_v<F> &&
                 std::is_trivially_destructible_v<F> &&
                 sizeof(F) <= InlineBytes &&
                 alignof(F) <= alignof(std::max_align_t))
    SmallFunction(F fn)
        : invoke([](void *target) { (*static_cast<F *>(target))(); })
    {
        ::new (static_cast<void *>(storage)) F(fn);
    }

    /** Invoke the target; must not be empty. */
    void operator()() { invoke(storage); }

    explicit operator bool() const { return invoke != nullptr; }

  private:
    alignas(std::max_align_t) unsigned char storage[InlineBytes];
    void (*invoke)(void *target) = nullptr;
};

} // namespace sgcn

#endif // SGCN_SIM_SMALL_FUNCTION_HH
