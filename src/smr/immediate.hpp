// Immediate-free pseudo-domain for externally synchronized baselines.
//
// The honesty baselines (ds/locked_set.hpp, ds/locked_queue.hpp) serialize
// every operation under one std::mutex, so a removed node can never be
// referenced by a concurrent reader — retire() may free it on the spot and
// no epochs, hazards, or limbo lists are needed. This domain supplies just
// enough of the `smr::Domain` surface for those structures to plug into the
// shared harness runners (guards are empty, protect is a plain load,
// retire destroys immediately), keeping the retired/freed ledgers exact so
// the leak gates still apply.
//
// It is NOT safe for lock-free structures: nothing defers reclamation.
#pragma once

#include <atomic>

#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

class immediate_domain {
 public:
  static constexpr smr::caps caps{};

  struct node : core::reclaimable {
    node* next = nullptr;
  };

  template <class T>
  using protected_ptr = raw_handle<T>;

  immediate_domain() = default;

  immediate_domain(const immediate_domain&) = delete;
  immediate_domain& operator=(const immediate_domain&) = delete;

  void on_alloc(node*) { stats_->on_alloc(); }
  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(immediate_domain& dom) : dom_(dom) {
      obs::emit(obs::event::guard_enter, 0);
    }
    ~guard() { obs::emit(obs::event::guard_exit, 0); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    template <class T>
    raw_handle<T> protect(const std::atomic<T*>& src) {
      return raw_handle<T>(src.load(std::memory_order_acquire));
    }

    /// Caller must hold the structure's lock (no concurrent reader can
    /// still see `n`): free right now.
    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.stats_->stamp_retire(static_cast<node*>(n));
      obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
      dom_.stats_->free_node(static_cast<node*>(n));
    }

   private:
    immediate_domain& dom_;
  };

  void drain() {}

 private:
  padded_stats stats_;
};

}  // namespace hyaline::smr
