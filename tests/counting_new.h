/**
 * @file
 * Global allocation counter for the zero-cost-when-disabled tests.
 *
 * Replaces every ordinary form of the global operator new/delete —
 * single and array, throwing and nothrow, sized and unsized — with a
 * malloc/free pair that bumps gAllocations on each allocation. The
 * set must be complete: library code that allocates through an
 * overload left to the runtime (std::stable_sort's nothrow temporary
 * buffer, say) and frees through a replaced one is an
 * alloc-dealloc mismatch under AddressSanitizer. The aligned
 * (std::align_val_t) forms stay with the runtime as a matched set.
 *
 * Replacement functions are program-wide: include this header from
 * exactly one translation unit per test binary.
 */

#ifndef PAD_TESTS_COUNTING_NEW_H
#define PAD_TESTS_COUNTING_NEW_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t size) { return countedAllocOrThrow(size); }
void *operator new[](std::size_t size) { return countedAllocOrThrow(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // PAD_TESTS_COUNTING_NEW_H
