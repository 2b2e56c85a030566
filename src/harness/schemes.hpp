// The SMR schemes the benchmarks run: construction parameters, and per
// scheme its display name, line-up role and LL/SC twin (scheme_traits),
// all listed once in `smr_schemes`.
//
// The paper plots nine schemes (`core_lineup`): Leaky, Epoch (EBR), HP,
// HE, IBR, Hyaline, Hyaline-1, Hyaline-S, Hyaline-1S. The head-policy
// variants Hyaline(dwcas), Hyaline(llsc) and Hyaline-S(llsc) run by name
// and as the LL/SC figures' twins.
#pragma once

#include <bit>
#include <memory>
#include <string>

#include "smr/ebr.hpp"
#include "smr/hazard_eras.hpp"
#include "smr/hazard_pointers.hpp"
#include "smr/hyaline.hpp"
#include "smr/hyaline1.hpp"
#include "smr/ibr.hpp"
#include "smr/immediate.hpp"
#include "smr/leaky.hpp"

namespace hyaline::harness {

/// Knobs shared by all scheme factories for one benchmark data point.
struct scheme_params {
  unsigned max_threads = 8;   ///< active + stalled threads (the registry
                              ///< runners add headroom for the prefilling
                              ///< thread's transparent tid lease)
  std::size_t slots = 0;      ///< Hyaline k (0 = 2*next_pow2(threads), capped
                              ///< at 128 like the paper's evaluation)
  std::size_t max_slots = 0;  ///< Hyaline-S adaptive growth cap (0 = off)
  std::size_t batch_min = 64;
  std::int64_t ack_threshold = 8192;  ///< Hyaline-S stalled-slot detection
  /// Retired-node shard count for schemes that support it (EBR, IBR, HP,
  /// HE, Leaky). 0 = classic per-thread (or global, for Leaky) lists.
  unsigned retire_shards = 0;
  /// Amortized guard entry burst for caps.burst_entry schemes (EBR, IBR,
  /// Hyaline slot caching). Harness default is on — the workload runners
  /// quiesce idle/exiting threads, which the burst exit relies on. Direct
  /// users of the raw configs get 0 (classic) unless they opt in.
  std::uint32_t entry_burst = 64;
};

inline std::size_t default_slots(const scheme_params& p) {
  if (p.slots != 0) return p.slots;
  std::size_t k = std::bit_ceil(std::size_t{p.max_threads});
  if (k > 128) k = 128;  // paper §6: k capped at 128
  return k;
}

template <class D>
struct scheme_traits;

template <>
struct scheme_traits<smr::leaky_domain> {
  static constexpr const char* name = "Leaky";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::leaky_domain> make(const scheme_params& p) {
    return std::make_unique<smr::leaky_domain>(p.max_threads,
                                               p.retire_shards);
  }
};

template <>
struct scheme_traits<smr::immediate_domain> {
  static constexpr const char* name = "Mutex";
  static std::unique_ptr<smr::immediate_domain> make(const scheme_params& p) {
    return std::make_unique<smr::immediate_domain>(p.max_threads);
  }
};

template <>
struct scheme_traits<smr::ebr_domain> {
  static constexpr const char* name = "Epoch";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::ebr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ebr_domain>(
        smr::ebr_config{.max_threads = p.max_threads,
                        .entry_burst = p.entry_burst,
                        .retire_shards = p.retire_shards});
  }
};

template <>
struct scheme_traits<smr::hp_domain> {
  static constexpr const char* name = "HP";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::hp_domain> make(const scheme_params& p) {
    return std::make_unique<smr::hp_domain>(smr::hp_config{
        .max_threads = p.max_threads, .retire_shards = p.retire_shards});
  }
};

template <>
struct scheme_traits<smr::he_domain> {
  static constexpr const char* name = "HE";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::he_domain> make(const scheme_params& p) {
    return std::make_unique<smr::he_domain>(smr::he_config{
        .max_threads = p.max_threads, .retire_shards = p.retire_shards});
  }
};

template <>
struct scheme_traits<smr::ibr_domain> {
  static constexpr const char* name = "IBR";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::ibr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ibr_domain>(
        smr::ibr_config{.max_threads = p.max_threads,
                        .entry_burst = p.entry_burst,
                        .retire_shards = p.retire_shards});
  }
};

template <>
struct scheme_traits<domain> {
  static constexpr const char* name = "Hyaline";
  static constexpr bool core_lineup = true;
  using llsc_twin = domain_llsc;  ///< Figures 13-16 head substitution
  static std::unique_ptr<domain> make(const scheme_params& p) {
    return std::make_unique<domain>(config{.slots = default_slots(p),
                                           .batch_min = p.batch_min,
                                           .entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<domain_dw> {
  static constexpr const char* name = "Hyaline(dwcas)";
  static constexpr bool core_lineup = false;
  static std::unique_ptr<domain_dw> make(const scheme_params& p) {
    return std::make_unique<domain_dw>(config{.slots = default_slots(p),
                                              .batch_min = p.batch_min,
                                              .entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<domain_llsc> {
  static constexpr const char* name = "Hyaline(llsc)";
  static constexpr bool core_lineup = false;
  static std::unique_ptr<domain_llsc> make(const scheme_params& p) {
    return std::make_unique<domain_llsc>(
        config{.slots = default_slots(p),
               .batch_min = p.batch_min,
               .entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<domain_s> {
  static constexpr const char* name = "Hyaline-S";
  static constexpr bool core_lineup = true;
  using llsc_twin = domain_s_llsc;  ///< Figures 13-16 head substitution
  static std::unique_ptr<domain_s> make(const scheme_params& p) {
    return std::make_unique<domain_s>(config{.slots = default_slots(p),
                                             .max_slots = p.max_slots,
                                             .batch_min = p.batch_min,
                                             .ack_threshold = p.ack_threshold,
                                             .entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<domain_s_llsc> {
  static constexpr const char* name = "Hyaline-S(llsc)";
  static constexpr bool core_lineup = false;
  static std::unique_ptr<domain_s_llsc> make(const scheme_params& p) {
    return std::make_unique<domain_s_llsc>(
        config{.slots = default_slots(p),
               .max_slots = p.max_slots,
               .batch_min = p.batch_min,
               .ack_threshold = p.ack_threshold,
               .entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<domain_1> {
  static constexpr const char* name = "Hyaline-1";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<domain_1> make(const scheme_params& p) {
    return std::make_unique<domain_1>(
        config1{.max_threads = p.max_threads, .batch_min = p.batch_min});
  }
};

template <>
struct scheme_traits<domain_1s> {
  static constexpr const char* name = "Hyaline-1S";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<domain_1s> make(const scheme_params& p) {
    return std::make_unique<domain_1s>(
        config1{.max_threads = p.max_threads, .batch_min = p.batch_min});
  }
};

/// An ordered list of scheme types; `for_each` calls f.template
/// operator()<D>() for each D in order.
template <class... D>
struct scheme_list {
  template <class F>
  static void for_each(F&& f) {
    (f.template operator()<D>(), ...);
  }
};

/// The twelve SMR schemes, in the paper's plotting order, then the
/// head-policy variants. The registry (and through it every figure, the
/// service scenario and the oracle) and fig_opcost iterate this list.
using smr_schemes =
    scheme_list<smr::leaky_domain, smr::ebr_domain, domain, domain_1,
                domain_s, domain_1s, smr::ibr_domain, smr::he_domain,
                smr::hp_domain, domain_dw, domain_llsc, domain_s_llsc>;

}  // namespace hyaline::harness
