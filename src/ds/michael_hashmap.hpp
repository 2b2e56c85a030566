// Michael's lock-free hash map [26]: a fixed array of Harris–Michael list
// buckets.
//
// The highest-throughput structure in the paper's suite (operations touch
// a handful of nodes), which is what makes it the chosen stressor for the
// oversubscription (Fig. 8c), robustness (Fig. 10a) and trimming
// (Fig. 10b) experiments.
//
// As in Michael's design, the table is one flat array of list heads:
// the hm_list buckets (16 B each, the domain reference and the head
// pointer) live in place in a single allocation, so an op indexes the
// array and loads the head with no hop through a separately allocated
// bucket. The bucket count is rounded up to a power of two, so the index
// is a mask, not a division.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "ds/hm_list.hpp"

namespace hyaline::ds {

template <class D>
class michael_hashmap {
 public:
  using domain_type = D;
  using guard = typename D::guard;

  /// `buckets` should be sized for the expected element count; the paper's
  /// workload holds ~50k live keys. It is rounded up to a power of two;
  /// 0 throws std::invalid_argument.
  explicit michael_hashmap(D& dom, std::size_t buckets = 16384)
      : mask_(rounded(buckets) - 1), buckets_(alloc().allocate(mask_ + 1)) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::construct_at(buckets_ + i, dom);
    }
  }

  ~michael_hashmap() {
    std::destroy_n(buckets_, mask_ + 1);  // each frees its live nodes
    alloc().deallocate(buckets_, mask_ + 1);
  }

  michael_hashmap(const michael_hashmap&) = delete;
  michael_hashmap& operator=(const michael_hashmap&) = delete;

  bool insert(guard& g, std::uint64_t key, std::uint64_t value) {
    return bucket(key).insert(g, key, value);
  }

  bool remove(guard& g, std::uint64_t key) {
    return bucket(key).remove(g, key);
  }

  bool contains(guard& g, std::uint64_t key) {
    return bucket(key).contains(g, key);
  }

  bool get(guard& g, std::uint64_t key, std::uint64_t& out) {
    return bucket(key).get(g, key, out);
  }

  std::size_t bucket_count() const { return mask_ + 1; }

  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i <= mask_; ++i) n += buckets_[i].unsafe_size();
    return n;
  }

 private:
  using allocator = std::allocator<hm_list<D>>;
  static allocator alloc() { return {}; }

  static std::size_t rounded(std::size_t buckets) {
    if (buckets == 0 ||
        buckets > std::allocator_traits<allocator>::max_size(alloc())) {
      throw std::invalid_argument(
          "michael_hashmap: bucket count must be nonzero and allocatable");
    }
    return std::bit_ceil(buckets);
  }

  hm_list<D>& bucket(std::uint64_t key) {
    // The index is the product's low bits. With a power-of-two table they
    // are a bijection of the key's low bits (the multiplier is odd), so
    // dense key ranges fill every bucket evenly.
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return buckets_[h & mask_];
  }

  const std::size_t mask_;
  hm_list<D>* const buckets_;
};

}  // namespace hyaline::ds
