// "Leaky" pseudo-scheme: no reclamation during the run.
//
// The paper's evaluation (§6) uses Leaky as the baseline that shows the raw
// data-structure throughput without any SMR cost. Retired nodes are parked
// on one Treiber stack and released only at drain()/destruction so the test
// suite can still verify leak-freedom.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

class leaky_domain {
 public:
  static constexpr smr::caps caps{};

  struct node : core::reclaimable {
    node* next = nullptr;
  };

  template <class T>
  using protected_ptr = raw_handle<T>;

  leaky_domain() = default;

  ~leaky_domain() { drain(); }

  leaky_domain(const leaky_domain&) = delete;
  leaky_domain& operator=(const leaky_domain&) = delete;

  void on_alloc(node*) { stats_->on_alloc(); }
  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(leaky_domain& dom) : dom_(dom) {
      obs::emit(obs::event::guard_enter, 0);
    }
    ~guard() { obs::emit(obs::event::guard_exit, 0); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    template <class T>
    raw_handle<T> protect(const std::atomic<T*>& src) {
      return raw_handle<T>(src.load(std::memory_order_acquire));
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.stats_->stamp_retire(static_cast<node*>(n));
      obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
      dom_.retired_.push(static_cast<node*>(n));
    }

   private:
    leaky_domain& dom_;
  };

  /// Releases every parked node. Quiescent use only.
  void drain() {
    node* n = retired_.take_all();
    while (n != nullptr) {
      node* nx = n->next;
      stats_->free_node(n);
      n = nx;
    }
  }

 private:
  core::treiber_stack<node> retired_;
  padded_stats stats_;
};

}  // namespace hyaline::smr
