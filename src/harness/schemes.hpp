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
#include <type_traits>

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
  /// The threads Hyaline and Hyaline-S place on their k slots, counting
  /// the one that prefills: the input of k in default_slots(). No other
  /// scheme reads it; they claim a record per thread as threads arrive.
  unsigned slot_threads = 8;
  std::size_t slots = 0;      ///< Hyaline k (0 = bit_ceil(slot_threads),
                              ///< capped at 128 like the paper's
                              ///< evaluation: default_slots())
  std::size_t max_slots = 0;  ///< Hyaline-S adaptive growth cap (0 = off)
  std::size_t batch_min = 64;
  std::int64_t ack_threshold = 8192;  ///< Hyaline-S stalled-slot detection
  /// Amortized guard entry burst for the schemes with quiesce() (EBR
  /// and IBR reservations, Hyaline and Hyaline-S slot presences). Harness
  /// default is on — the workload runners quiesce idle/exiting threads,
  /// which the burst exit relies on. Direct users of the raw configs get
  /// 0 (classic) unless they opt in.
  std::uint32_t entry_burst = 64;
};

/// Hyaline-S's Ack threshold for runs of tens to hundreds of ms (the
/// figures, the oracle, the sweep and the service): the paper's 8192
/// (scheme_params' default) is tuned for 10 s runs (§6), in which a
/// stalled slot is marked within the run; 512 keeps that so at this scale.
inline constexpr std::int64_t kShortRunAckThreshold = 512;

inline std::size_t default_slots(const scheme_params& p) {
  if (p.slots != 0) return p.slots;
  std::size_t k = std::bit_ceil(std::size_t{p.slot_threads});
  if (k > 128) k = 128;  // paper §6: k capped at 128
  return k;
}

namespace detail {

template <class D>
concept has_flush = requires(D d) { d.flush(); };

/// Finalize the calling thread's partial retirement batch, for schemes
/// that batch (the Hyaline family). No-op elsewhere.
template <class D>
void flush_thread(D& dom) {
  if constexpr (has_flush<D>) {
    dom.flush();
  } else {
    (void)dom;
  }
}

template <class D>
concept has_quiesce = requires(D d) { d.quiesce(); };

/// Clear the calling thread's lingering burst-entry state, for schemes
/// with amortized guard exit (entry_burst): the EBR/IBR reservation, or
/// the Hyaline/Hyaline-S parked slot presence. Called wherever a thread
/// stops taking guards — worker and tenant exit, after prefill, and after
/// the final drain loop — so an idle thread cannot stall epoch or era
/// advancement, or pin the batches that reach its slot, for the threads
/// still running. No-op elsewhere.
template <class D>
void quiesce_thread(D& dom) {
  if constexpr (has_quiesce<D>) {
    dom.quiesce();
  } else {
    (void)dom;
  }
}

}  // namespace detail

template <class D>
struct scheme_traits;

template <>
struct scheme_traits<smr::leaky_domain> {
  static constexpr const char* name = "Leaky";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::leaky_domain> make(const scheme_params&) {
    return std::make_unique<smr::leaky_domain>();
  }
};

template <>
struct scheme_traits<smr::immediate_domain> {
  static constexpr const char* name = "Mutex";
  static std::unique_ptr<smr::immediate_domain> make(const scheme_params&) {
    return std::make_unique<smr::immediate_domain>();
  }
};

template <>
struct scheme_traits<smr::ebr_domain> {
  static constexpr const char* name = "Epoch";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::ebr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ebr_domain>(
        smr::ebr_config{.entry_burst = p.entry_burst});
  }
};

template <>
struct scheme_traits<smr::hp_domain> {
  static constexpr const char* name = "HP";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::hp_domain> make(const scheme_params&) {
    return std::make_unique<smr::hp_domain>();
  }
};

template <>
struct scheme_traits<smr::he_domain> {
  static constexpr const char* name = "HE";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::he_domain> make(const scheme_params&) {
    return std::make_unique<smr::he_domain>();
  }
};

template <>
struct scheme_traits<smr::ibr_domain> {
  static constexpr const char* name = "IBR";
  static constexpr bool core_lineup = true;
  static std::unique_ptr<smr::ibr_domain> make(const scheme_params& p) {
    return std::make_unique<smr::ibr_domain>(
        smr::ibr_config{.entry_burst = p.entry_burst});
  }
};

/// make() for the Hyaline family: every Hyaline / Hyaline-S head variant
/// is built from one config (basic Hyaline ignores max_slots and
/// ack_threshold), Hyaline-1 and Hyaline-1S from one config1.
template <class D>
struct hyaline_make {
  static std::unique_ptr<D> make(const scheme_params& p) {
    if constexpr (std::is_constructible_v<D, config1>) {
      return std::make_unique<D>(config1{.batch_min = p.batch_min});
    } else {
      return std::make_unique<D>(config{.slots = default_slots(p),
                                        .max_slots = p.max_slots,
                                        .batch_min = p.batch_min,
                                        .ack_threshold = p.ack_threshold,
                                        .entry_burst = p.entry_burst});
    }
  }
};

template <>
struct scheme_traits<domain> : hyaline_make<domain> {
  static constexpr const char* name = "Hyaline";
  static constexpr bool core_lineup = true;
  using llsc_twin = domain_llsc;  ///< Figures 13-16 head substitution
};

template <>
struct scheme_traits<domain_dw> : hyaline_make<domain_dw> {
  static constexpr const char* name = "Hyaline(dwcas)";
  static constexpr bool core_lineup = false;
};

template <>
struct scheme_traits<domain_llsc> : hyaline_make<domain_llsc> {
  static constexpr const char* name = "Hyaline(llsc)";
  static constexpr bool core_lineup = false;
};

template <>
struct scheme_traits<domain_s> : hyaline_make<domain_s> {
  static constexpr const char* name = "Hyaline-S";
  static constexpr bool core_lineup = true;
  using llsc_twin = domain_s_llsc;  ///< Figures 13-16 head substitution
};

template <>
struct scheme_traits<domain_s_llsc> : hyaline_make<domain_s_llsc> {
  static constexpr const char* name = "Hyaline-S(llsc)";
  static constexpr bool core_lineup = false;
};

template <>
struct scheme_traits<domain_1> : hyaline_make<domain_1> {
  static constexpr const char* name = "Hyaline-1";
  static constexpr bool core_lineup = true;
};

template <>
struct scheme_traits<domain_1s> : hyaline_make<domain_1s> {
  static constexpr const char* name = "Hyaline-1S";
  static constexpr bool core_lineup = true;
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
