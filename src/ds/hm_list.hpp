// Harris–Michael sorted lock-free linked list ([20], with Michael's [26]
// hazard-compatible find).
//
// The slowest structure in the paper's benchmark suite (long traversals) —
// Figure 8a/9a/11a/12a. The low bit of a node's `next` pointer marks the
// node as logically deleted; find() physically unlinks marked nodes it
// passes and retires them through the SMR domain, which is the "timely
// retirement" discipline the robust schemes require (§2.4).
//
// Template parameter D is any smr::Domain. Protection is expressed through
// RAII handles (API v2): the search window carries a handle for curr and
// one for the node owning prev, and advancing the window moves them —
// pointer-publication schemes (HP, HE) lease one extra slot while the new
// curr is protected before the old handle is released, so the peak is
// three simultaneous protections.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/tagged_ptr.hpp"
#include "smr/domain.hpp"

namespace hyaline::ds {

template <class D>
class hm_list {
 public:
  static_assert(smr::Domain<D>, "hm_list requires an smr::Domain scheme");
  static_assert(smr::max_hazards_v<D> >= 3,
                "hm_list holds up to 3 simultaneous protections "
                "(prev-node, curr, and the transient re-protect)");

  using domain_type = D;
  using guard = typename D::guard;

  explicit hm_list(D& dom) : dom_(dom) {}

  ~hm_list() {
    // Quiescent teardown: free every remaining node directly.
    lnode* n = untag(head_.load(std::memory_order_relaxed));
    while (n != nullptr) {
      lnode* nx = untag(n->next.load(std::memory_order_relaxed));
      delete n;
      n = nx;
    }
  }

  hm_list(const hm_list&) = delete;
  hm_list& operator=(const hm_list&) = delete;

  /// Insert key -> value; fails if the key is present.
  bool insert(guard& g, std::uint64_t key, std::uint64_t value) {
    lnode* fresh = nullptr;
    for (;;) {
      window w;
      if (find(g, key, w)) {
        delete fresh;  // never published
        return false;
      }
      if (fresh == nullptr) {
        fresh = new lnode{key, value};
        dom_.on_alloc(fresh);
      }
      fresh->next.store(w.curr, std::memory_order_relaxed);
      lnode* expected = w.curr;
      // seq_cst: insert linearization point; the oracle assumes a total
      // order over the list's link updates.
      if (w.prev->compare_exchange_strong(expected, fresh,
                                          std::memory_order_seq_cst)) {
        return true;
      }
    }
  }

  /// Remove a key; fails if absent.
  bool remove(guard& g, std::uint64_t key) {
    for (;;) {
      window w;
      if (!find(g, key, w)) return false;
      // Logically delete: mark curr's next.
      lnode* next = w.next;
      lnode* expected = next;
      // seq_cst: logical-delete mark is the remove linearization point.
      if (!w.curr->next.compare_exchange_strong(
              expected, with_tag(next, 1), std::memory_order_seq_cst)) {
        continue;  // next changed or already marked; re-find
      }
      // Physically unlink; on failure, a find() will clean up later.
      expected = w.curr;
      // seq_cst: physical unlink; must be ordered before the retire so
      // scanners see the node unreachable once it is in a retired list.
      if (w.prev->compare_exchange_strong(expected, next,
                                          std::memory_order_seq_cst)) {
        g.retire(w.curr);
      } else {
        w.release();  // drop our protections before the helping find
        window dummy;
        find(g, key, dummy);  // help unlink
      }
      return true;
    }
  }

  /// Membership test.
  bool contains(guard& g, std::uint64_t key) {
    window w;
    return find(g, key, w);
  }

  /// Lookup returning the value through `out`.
  bool get(guard& g, std::uint64_t key, std::uint64_t& out) {
    window w;
    if (!find(g, key, w)) return false;
    out = w.curr->value;
    return true;
  }

  /// Number of (unmarked) nodes; quiescent use only (tests).
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    lnode* c = untag(head_.load(std::memory_order_relaxed));
    while (c != nullptr) {
      lnode* raw = c->next.load(std::memory_order_relaxed);
      if (!has_tag(raw, 1)) ++n;
      c = untag(raw);
    }
    return n;
  }

 private:
  struct lnode : D::node {
    std::uint64_t key;
    std::uint64_t value;
    std::atomic<lnode*> next{nullptr};

    lnode(std::uint64_t k, std::uint64_t v) : key(k), value(v) {}
  };

  using handle = typename D::template protected_ptr<lnode>;

  struct window {
    std::atomic<lnode*>* prev = nullptr;
    lnode* curr = nullptr;  // first node with key >= search key (or null)
    lnode* next = nullptr;  // curr's successor at inspection time
    handle curr_h;          // protection for curr
    handle prev_h;          // protection for the node owning prev

    void release() {
      curr_h.reset();
      prev_h.reset();
    }
  };

  /// Michael's find: positions the window at the first node with
  /// key >= `key`, unlinking marked nodes along the way. On return, the
  /// window's handles keep `curr` (if non-null) and the node owning `prev`
  /// protected until the window dies.
  bool find(guard& g, std::uint64_t key, window& w) {
  retry:
    w.release();
    std::atomic<lnode*>* prev = &head_;
    w.curr_h = g.protect(*prev);
    lnode* curr = w.curr_h.get();
    for (;;) {
      if (curr == nullptr) {
        w.prev = prev;
        w.curr = nullptr;
        w.next = nullptr;
        return false;
      }
      lnode* next_raw = curr->next.load(std::memory_order_acquire);
      if (has_tag(next_raw, 1)) {
        // curr is logically deleted: unlink it from prev.
        lnode* next = untag(next_raw);
        lnode* expected = curr;
        // seq_cst: helping unlink of a marked node; participates in the
        // same total order as remove()'s unlink.
        if (!prev->compare_exchange_strong(expected, next,
                                           std::memory_order_seq_cst)) {
          goto retry;
        }
        g.retire(curr);
        w.curr_h = g.protect(*prev);  // transient third protection
        curr = w.curr_h.get();
        // prev's owner may have been marked meanwhile: the re-read is then
        // tagged (possibly tagged null), so restart as the forward step does.
        if (has_tag(curr, 1)) goto retry;
        continue;
      }
      // seq_cst: validating re-read after the hazard publication in
      // protect(); it must not be ordered before that publication.
      if (prev->load(std::memory_order_seq_cst) != curr) goto retry;
      if (curr->key >= key) {
        w.prev = prev;
        w.curr = curr;
        w.next = next_raw;
        return curr->key == key;
      }
      prev = &curr->next;
      w.prev_h = std::move(w.curr_h);  // keep the new prev-node protected
      w.curr_h = g.protect(*prev);
      curr = w.curr_h.get();
      // A marked prev-node makes *prev's raw value tagged; protect returns
      // it tagged and the validation above (or the tag check) restarts us.
      if (has_tag(curr, 1)) goto retry;
    }
  }

  D& dom_;
  std::atomic<lnode*> head_{nullptr};
};

}  // namespace hyaline::ds
