/**
 * @file
 * Allocation-free stable index sort for per-step hot paths.
 */

#ifndef PAD_UTIL_INDEX_SORT_H
#define PAD_UTIL_INDEX_SORT_H

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

namespace pad {

/**
 * Fill @p order with the indices 0..n-1 ordered by `key(i)` under
 * @p compare, ties broken by index — exactly the order
 * std::stable_sort gives — reusing @p order's capacity.
 * std::stable_sort takes a temporary buffer on every call; std::sort
 * with the index tie-break works in place. Keys must not be NaN.
 */
template <typename Key, typename Compare>
void
stableIndexSort(std::vector<std::size_t> &order, std::size_t n, Key key,
                Compare compare)
{
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto ka = key(a);
                  const auto kb = key(b);
                  return compare(ka, kb) ||
                         (!compare(kb, ka) && a < b);
              });
}

} // namespace pad

#endif // PAD_UTIL_INDEX_SORT_H
