// Natarajan & Mittal's lock-free external binary search tree [29].
//
// Leaf-oriented: internal nodes route, leaves store the keys. Deletion is
// two-phase: *injection* FLAGs the edge parent->leaf, then *cleanup* TAGs
// the sibling edge (freezing it) and splices the sibling into the deepest
// ancestor edge that is still untagged. Both bits live in the low bits of
// child pointers (common/tagged_ptr.hpp).
//
// Reclamation discipline: edges inside an unlinked fragment always carry a
// FLAG or TAG *before* the splice happens, and tagged/flagged edges are
// immutable. Hence the fragment a successful splice removes is frozen: the
// winner of the ancestor CAS walks it and retires every internal node and
// flagged leaf exactly once. This also gives reservation-based schemes
// (D::caps.needs_clean_edges: HP/HE/IBR/Hyaline-S/-1S) their validation rule: a
// re-read *clean* edge proves the target was not yet spliced when the
// reservation was published. A frozen edge, by contrast, validates forever
// — its target may already be retired and reclaimed — so under those
// schemes, seek never crosses a flagged/tagged edge: it helps the pending
// deletion complete (cleanup) and restarts from the root. Guard-lifetime
// schemes (Leaky/EBR/basic Hyaline/Hyaline-1) pin everything retired while
// the guard is live and traverse frozen fragments safely.
//
// Sentinels: keys inf0 < inf1 < inf2 occupy the top of the key space; user
// keys must be < inf0. R(inf2) and S(inf1) and the three sentinel leaves
// are never removed.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/tagged_ptr.hpp"
#include "smr/domain.hpp"

namespace hyaline::ds {

template <class D>
class natarajan_tree {
 public:
  static_assert(smr::Domain<D>,
                "natarajan_tree requires an smr::Domain scheme");
  static_assert(smr::max_hazards_v<D> >= 5,
                "natarajan_tree holds up to 5 simultaneous protections "
                "(ancestor, successor, parent, leaf, and the child being "
                "acquired)");

  using domain_type = D;
  using guard = typename D::guard;

  /// Largest key a user may insert.
  static constexpr std::uint64_t max_key = ~std::uint64_t{0} - 3;

  explicit natarajan_tree(D& dom) : dom_(dom) {
    root_ = new tnode{inf2, 0};
    s_ = new tnode{inf1, 0};
    root_->left.store(s_, std::memory_order_relaxed);
    root_->right.store(new tnode{inf2, 0}, std::memory_order_relaxed);
    s_->left.store(new tnode{inf0, 0}, std::memory_order_relaxed);
    s_->right.store(new tnode{inf1, 0}, std::memory_order_relaxed);
  }

  ~natarajan_tree() { free_rec(root_); }

  natarajan_tree(const natarajan_tree&) = delete;
  natarajan_tree& operator=(const natarajan_tree&) = delete;

  bool insert(guard& g, std::uint64_t key, std::uint64_t value) {
    tnode* new_leaf = nullptr;
    tnode* new_internal = nullptr;
    for (;;) {
      seek_record r;
      seek(g, key, r);
      if (r.leaf->key == key) {
        delete new_leaf;  // never published
        delete new_internal;
        return false;
      }
      tnode* parent = r.parent;
      std::atomic<tnode*>* child_addr =
          key < parent->key ? &parent->left : &parent->right;
      if (new_leaf == nullptr) {
        new_leaf = new tnode{key, value};
        dom_.on_alloc(new_leaf);
        new_internal = new tnode{0, 0};
        dom_.on_alloc(new_internal);
      }
      tnode* old_leaf = r.leaf;
      // Internal routing key = the larger leaf key; smaller key goes left.
      new_internal->key = key > old_leaf->key ? key : old_leaf->key;
      if (key < old_leaf->key) {
        new_internal->left.store(new_leaf, std::memory_order_relaxed);
        new_internal->right.store(old_leaf, std::memory_order_relaxed);
      } else {
        new_internal->left.store(old_leaf, std::memory_order_relaxed);
        new_internal->right.store(new_leaf, std::memory_order_relaxed);
      }
      tnode* expected = old_leaf;  // clean edge required
      // seq_cst: insert linearization point (clean-edge swap); the oracle
      // assumes a total order over edge updates.
      if (child_addr->compare_exchange_strong(expected, new_internal,
                                              std::memory_order_seq_cst)) {
        return true;
      }
      // Help if the failure was an in-progress deletion of old_leaf.
      // seq_cst: re-read of the contended edge decides whether to help a
      // concurrent deletion; must be ordered after the failed CAS.
      tnode* raw = child_addr->load(std::memory_order_seq_cst);
      if (untag(raw) == old_leaf && tag_of(raw) != 0) cleanup(g, key, r);
    }
  }

  bool remove(guard& g, std::uint64_t key) {
    bool injected = false;
    tnode* leaf = nullptr;
    for (;;) {
      seek_record r;
      seek(g, key, r);
      if (!injected) {
        leaf = r.leaf;
        if (leaf->key != key) return false;
        tnode* parent = r.parent;
        std::atomic<tnode*>* child_addr =
            key < parent->key ? &parent->left : &parent->right;
        tnode* expected = leaf;  // clean edge required
        // seq_cst: FLAG injection is the remove linearization point.
        if (child_addr->compare_exchange_strong(
                expected, with_tag(leaf, flag_bit),
                std::memory_order_seq_cst)) {
          injected = true;
          if (cleanup(g, key, r)) return true;
        } else {
          // seq_cst: re-read of the contended edge decides whether to help;
          // must be ordered after the failed injection CAS.
          tnode* raw = child_addr->load(std::memory_order_seq_cst);
          if (untag(raw) == leaf && tag_of(raw) != 0) cleanup(g, key, r);
        }
      } else {
        if (r.leaf != leaf) return true;  // a helper finished the splice
        if (cleanup(g, key, r)) return true;
      }
    }
  }

  bool contains(guard& g, std::uint64_t key) {
    seek_record r;
    seek(g, key, r);
    return r.leaf->key == key;
  }

  bool get(guard& g, std::uint64_t key, std::uint64_t& out) {
    seek_record r;
    seek(g, key, r);
    if (r.leaf->key != key) return false;
    out = r.leaf->value;
    return true;
  }

  /// Number of user leaves; quiescent use only.
  std::size_t unsafe_size() const { return count_rec(root_); }

 private:
  static constexpr unsigned flag_bit = 1;  // leaf edge: delete in progress
  static constexpr unsigned tag_bit = 2;   // sibling edge: frozen for splice
  static constexpr std::uint64_t inf0 = ~std::uint64_t{0} - 2;
  static constexpr std::uint64_t inf1 = ~std::uint64_t{0} - 1;
  static constexpr std::uint64_t inf2 = ~std::uint64_t{0};

  struct tnode : D::node {
    std::uint64_t key;
    std::uint64_t value;
    std::atomic<tnode*> left{nullptr};
    std::atomic<tnode*> right{nullptr};

    tnode(std::uint64_t k, std::uint64_t v) : key(k), value(v) {}
  };

  using handle = typename D::template protected_ptr<tnode>;

  struct seek_record {
    tnode* ancestor = nullptr;   // deepest node with an untagged path edge
    tnode* successor = nullptr;  // ancestor's child on the path
    tnode* parent = nullptr;     // leaf's parent
    tnode* leaf = nullptr;       // terminal leaf
    // Protections for the window roles. parent_h may be empty while the
    // parent aliases the successor (the role handoff below); the sentinel
    // nodes R and S are permanent and carry no handle.
    handle ancestor_h;
    handle successor_h;
    handle parent_h;
    handle leaf_h;

    void release() {
      ancestor_h.reset();
      successor_h.reset();
      parent_h.reset();
      leaf_h.reset();
    }
  };

  /// D::caps.needs_clean_edges: D cannot guarantee that a node reached
  /// through a frozen (already spliced-out) edge is still allocated —
  /// HP/HE pin only the published pointer/era, and the era-robust schemes
  /// (IBR, Hyaline-S, Hyaline-1S) may skip young batches a stale-edge
  /// holder was never refcounted into. Such schemes must not cross frozen
  /// edges; see the header comment. Guard-lifetime schemes (Leaky/EBR/
  /// basic Hyaline/Hyaline-1) pin everything retired while the guard is
  /// live and may.
  static constexpr bool needs_clean_edges() {
    return D::caps.needs_clean_edges;
  }

  /// Descend to the leaf for `key`, maintaining the four-node window. The
  /// window roles carry RAII protection handles that move as the roles
  /// advance; R and S are permanent and need no protection. Peak: four
  /// role handles plus the child being acquired.
  void seek(guard& g, std::uint64_t key, seek_record& r) {
    while (!descend(g, key, r)) {
    }
  }

  /// One descent from the root; false = restart (met a frozen edge).
  bool descend(guard& g, std::uint64_t key, seek_record& r) {
    r.release();
    r.ancestor = root_;
    r.successor = s_;
    r.parent = s_;
    r.leaf_h = g.protect(s_->left);
    tnode* parent_field = r.leaf_h.get();
    if constexpr (needs_clean_edges()) {
      if (tag_of(parent_field) != 0) {
        // Defensive: the sentinel structure keeps S's left edge clean (the
        // rightmost leaf of the left subtree is the undeletable inf0), so
        // this cannot happen in a correct execution; never descend through
        // a dirty edge regardless.
        return false;
      }
    }
    r.leaf = untag(parent_field);

    for (;;) {
      std::atomic<tnode*>& edge =
          key < r.leaf->key ? r.leaf->left : r.leaf->right;
      handle cur_h = g.protect(edge);
      tnode* cur_raw = cur_h.get();
      tnode* cur = untag(cur_raw);
      if (cur == nullptr) {
        return true;
      }
      const bool path_edge_clean = !has_tag(parent_field, tag_bit);
      if (path_edge_clean) {
        // Role handoff: the old parent becomes the ancestor and the old
        // leaf becomes the successor. When the parent aliased the
        // successor (parent_h empty), the successor's handle is the one
        // protecting the node that is now the ancestor.
        r.ancestor = r.parent;
        r.ancestor_h = r.parent_h ? std::move(r.parent_h)
                                  : std::move(r.successor_h);
        r.successor = r.leaf;
        r.successor_h = std::move(r.leaf_h);
      }
      if constexpr (needs_clean_edges()) {
        if (tag_of(cur_raw) != 0) {
          // Frozen edge: cur may sit in an already-spliced fragment. Help
          // the deletion pending at r.leaf — the (ancestor, successor)
          // window just updated above is exactly its cleanup window — then
          // restart from the root. Progress: each restart either completes
          // that deletion or observes another thread's completed splice.
          seek_record h;
          h.ancestor = r.ancestor;
          h.successor = r.successor;
          h.parent = r.leaf;
          h.leaf = cur;
          cleanup(g, key, h);
          return false;
        }
      }
      r.parent = r.leaf;
      if (path_edge_clean) {
        // parent aliases successor: protection lives in successor_h.
        r.parent_h.reset();
      } else {
        r.parent_h = std::move(r.leaf_h);
      }
      r.leaf = cur;
      r.leaf_h = std::move(cur_h);
      parent_field = cur_raw;
    }
  }

  /// Set the TAG bit on an edge (idempotent; pointer becomes immutable).
  static void set_tag(std::atomic<tnode*>& edge) {
    // seq_cst: TAG protocol read/CAS participate in the same total
    // order as the splice CASes that interpret the tag bits.
    tnode* v = edge.load(std::memory_order_seq_cst);
    while (!has_tag(v, tag_bit)) {
      // seq_cst: see set_tag's comment above — tag and splice CASes
      // must agree on one total order.
      if (edge.compare_exchange_weak(v, with_tag(v, tag_bit),
                                     std::memory_order_seq_cst)) {
        return;
      }
    }
  }

  /// Splice the fragment [successor .. parent] + flagged leaf out of the
  /// tree, replacing ancestor's path edge with the surviving sibling.
  /// Returns true iff this call won the splice (and retired the fragment).
  bool cleanup(guard& g, std::uint64_t key, seek_record& r) {
    tnode* ancestor = r.ancestor;
    tnode* successor = r.successor;
    tnode* parent = r.parent;

    std::atomic<tnode*>* succ_addr =
        key < ancestor->key ? &ancestor->left : &ancestor->right;
    std::atomic<tnode*>* child_addr;
    std::atomic<tnode*>* sibling_addr;
    if (key < parent->key) {
      child_addr = &parent->left;
      sibling_addr = &parent->right;
    } else {
      child_addr = &parent->right;
      sibling_addr = &parent->left;
    }
    // seq_cst: reads which child carries the in-progress FLAG; must be
    // ordered with the injection CAS that set it.
    if (!has_tag(child_addr->load(std::memory_order_seq_cst), flag_bit)) {
      // The deletion in progress is of the *other* child; it survives on
      // the path side and the flagged one goes.
      sibling_addr = child_addr;
    }
    set_tag(*sibling_addr);
    // seq_cst: read of the now-TAGged (immutable) sibling edge, ordered
    // after set_tag's CAS above.
    tnode* sib = sibling_addr->load(std::memory_order_seq_cst);
    // Keep the sibling's FLAG (its own deletion continues from ancestor),
    // clear the TAG.
    tnode* desired = with_tag(untag(sib), tag_of(sib) & flag_bit);
    tnode* expected = successor;  // clean edge
    // seq_cst: the splice CAS that wins the fragment; totally ordered
    // with the FLAG/TAG protocol so exactly one caller retires it.
    if (!succ_addr->compare_exchange_strong(expected, desired,
                                            std::memory_order_seq_cst)) {
      return false;
    }
    // We won: the fragment is frozen (every edge inside carries FLAG/TAG
    // and can no longer change). Retire it exactly once.
    std::atomic<tnode*>* removed_addr =
        sibling_addr == &parent->left ? &parent->right : &parent->left;
    tnode* n = successor;
    while (n != parent) {
      const bool left_path = key < n->key;
      // seq_cst: frozen-fragment edges (all FLAG/TAGged) — immutable by
      // protocol, read in the splice's total order before retiring.
      tnode* on = untag((left_path ? n->left : n->right)
                            .load(std::memory_order_seq_cst));
      // seq_cst: same frozen-fragment read as above.
      tnode* off = untag((left_path ? n->right : n->left)
                             .load(std::memory_order_seq_cst));
      g.retire(off);  // an intermediate's flagged leaf
      g.retire(n);
      n = on;
    }
    g.retire(parent);
    // seq_cst: frozen-fragment read (see the loop above).
    g.retire(untag(removed_addr->load(std::memory_order_seq_cst)));
    return true;
  }

  void free_rec(tnode* n) {
    if (n == nullptr) return;
    free_rec(untag(n->left.load(std::memory_order_relaxed)));
    free_rec(untag(n->right.load(std::memory_order_relaxed)));
    delete n;
  }

  std::size_t count_rec(const tnode* n) const {
    if (n == nullptr) return 0;
    const tnode* l = untag(n->left.load(std::memory_order_relaxed));
    const tnode* rr = untag(n->right.load(std::memory_order_relaxed));
    if (l == nullptr && rr == nullptr) return n->key < inf0 ? 1 : 0;
    return count_rec(l) + count_rec(rr);
  }

  D& dom_;
  tnode* root_;  // R (key inf2); left child S (key inf1); both permanent
  tnode* s_;
};

}  // namespace hyaline::ds
