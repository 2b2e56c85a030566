// Adaptive slot directory (paper §4.3, Figure 6).
//
// Hyaline-S caps the number of slots; when every slot is occupied by stalled
// threads, the number of slots must grow so active threads can make
// progress. Slots cannot move (heads are CAS targets), so instead of
// resizing an array we keep a small fixed *directory* of arrays:
//
//   directory[0]          covers slots [0, Kmin)
//   directory[s], s >= 1  covers slots [2^(s-1)*Kmin, 2^s*Kmin)
//
// To access slot i:  s = log2(floor(i / Kmin)) + 1, with log2(0) = -1,
// implemented with a shift (Kmin is a power of two) and the leading-zero
// count (std::bit_width), so slot access runs no divide. The directory
// has at most 64 - log2(Kmin) entries on a 64-bit machine.
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace hyaline {

/// Growable, stable-address array of `Slot`s. `Slot` must be
/// default-constructible; constructed state is the valid empty state.
template <class Slot>
class slot_directory {
 public:
  /// `kmin` must be a power of two (the Adjs arithmetic requires the total
  /// slot count to stay a power of two; growth always doubles).
  explicit slot_directory(std::size_t kmin, std::size_t kmax = max_slots_cap)
      : kmin_(kmin),
        kmin_shift_(static_cast<unsigned>(std::countr_zero(kmin))),
        kmax_(kmax) {
    assert(kmin >= 1 && std::has_single_bit(kmin));
    assert(kmax >= kmin && std::has_single_bit(kmax));
    dir_[0].store(new Slot[kmin], std::memory_order_release);
    k_.store(kmin, std::memory_order_release);
  }

  ~slot_directory() {
    for (auto& e : dir_) delete[] e.load(std::memory_order_acquire);
  }

  slot_directory(const slot_directory&) = delete;
  slot_directory& operator=(const slot_directory&) = delete;

  /// Current number of usable slots (always a power of two).
  std::size_t size() const { return k_.load(std::memory_order_acquire); }

  /// Access slot `i` (must be < size() at some point in the past; slots
  /// never disappear).
  Slot& at(std::size_t i) {
    const std::size_t s = dir_index(i);
    Slot* arr = dir_[s].load(std::memory_order_acquire);
    assert(arr != nullptr);
    return arr[i - base_of(s)];
  }

  const Slot& at(std::size_t i) const {
    return const_cast<slot_directory*>(this)->at(i);
  }

  /// Doubles the slot count (up to kmax). Lock-free: losers of the
  /// directory CAS discard their buffer. Returns the new size (which can be
  /// larger than requested if other threads grew concurrently).
  std::size_t grow() {
    std::size_t cur = size();
    if (cur >= kmax_) return cur;
    const std::size_t s = dir_index(cur);  // first uncovered slot == cur
    Slot* fresh = new Slot[cur];           // entry s holds `cur` more slots
    Slot* expected = nullptr;
    if (!dir_[s].compare_exchange_strong(expected, fresh,
                                         std::memory_order_acq_rel)) {
      delete[] fresh;  // concurrent grower won
    }
    // Publish the doubled k (monotonic max).
    std::size_t k = k_.load(std::memory_order_acquire);
    while (k < cur * 2 &&
           !k_.compare_exchange_weak(k, cur * 2, std::memory_order_acq_rel)) {
    }
    return size();
  }

  /// Directory index for slot i (the paper's log2 formula).
  std::size_t dir_index(std::size_t i) const {
    const std::size_t q = i >> kmin_shift_;
    return q == 0 ? 0 : static_cast<std::size_t>(std::bit_width(q));
  }

  /// First slot covered by directory entry s.
  std::size_t base_of(std::size_t s) const {
    return s == 0 ? 0 : (std::size_t{1} << (s - 1)) * kmin_;
  }

  static constexpr std::size_t max_slots_cap = std::size_t{1} << 20;

 private:
  static constexpr std::size_t dir_entries = 64;

  std::size_t kmin_;
  unsigned kmin_shift_;  // log2(kmin_)
  std::size_t kmax_;
  std::atomic<std::size_t> k_{0};
  std::atomic<Slot*> dir_[dir_entries] = {};
};

}  // namespace hyaline
