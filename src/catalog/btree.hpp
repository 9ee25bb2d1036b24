// An in-memory B+-tree.
//
// A textbook B+-tree with fixed fanout, parent-less recursive insert/erase
// (split, borrow, merge), a linked leaf level for ordered scans, and a
// structural validator the property tests run against a std::map oracle.
// ObjectCatalog no longer uses it: object ids are dense indices, so the
// catalog keeps a table with one slot per id (catalog.hpp). The tree stays
// as an ordered index for sparse keys and has no user in src.
//
// Keys are unique and totally ordered by std::less<Key>. Values are stored
// in the leaves only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace tapesim::catalog {

template <typename Key, typename Value, std::size_t Fanout = 64>
class BPlusTree {
  static_assert(Fanout >= 4, "fanout must allow splitting");

  // A leaf holds up to kLeafMax (key,value) pairs; an internal node holds up
  // to Fanout children separated by Fanout-1 keys.
  static constexpr std::size_t kLeafMax = Fanout - 1;
  static constexpr std::size_t kLeafMin = kLeafMax / 2;
  static constexpr std::size_t kChildMax = Fanout;
  static constexpr std::size_t kChildMin = (Fanout + 1) / 2;

  struct Node {
    bool leaf;
    std::uint32_t count = 0;  // keys in use
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
  };

  struct LeafNode : Node {
    std::array<Key, kLeafMax> keys;
    std::array<Value, kLeafMax> values;
    LeafNode* next = nullptr;
    LeafNode() : Node(true) {}
  };

  struct InternalNode : Node {
    std::array<Key, kChildMax - 1> keys;
    std::array<Node*, kChildMax> children{};
    InternalNode() : Node(false) {}
  };

 public:
  BPlusTree() = default;
  ~BPlusTree() { clear(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& other) noexcept { swap(other); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      clear();
      swap(other);
    }
    return *this;
  }

  /// Inserts (key, value). Returns false (and leaves the tree unchanged)
  /// if the key already exists.
  bool insert(const Key& key, Value value) {
    if (root_ == nullptr) {
      auto* leaf = new LeafNode();
      leaf->keys[0] = key;
      leaf->values[0] = std::move(value);
      leaf->count = 1;
      root_ = leaf;
      first_leaf_ = leaf;
      size_ = 1;
      return true;
    }
    bool inserted = false;
    auto split = insert_rec(root_, key, std::move(value), inserted);
    if (split) {
      auto* new_root = new InternalNode();
      new_root->keys[0] = split->first;
      new_root->children[0] = root_;
      new_root->children[1] = split->second;
      new_root->count = 1;
      root_ = new_root;
    }
    if (inserted) ++size_;
    return inserted;
  }

  /// Returns a pointer to the value for `key`, or nullptr.
  [[nodiscard]] Value* find(const Key& key) {
    Node* n = root_;
    if (n == nullptr) return nullptr;
    while (!n->leaf) {
      auto* in = static_cast<InternalNode*>(n);
      n = in->children[child_index(in, key)];
    }
    auto* leaf = static_cast<LeafNode*>(n);
    const std::size_t i = leaf_lower_bound(leaf, key);
    if (i < leaf->count && !(key < leaf->keys[i]) && !(leaf->keys[i] < key)) {
      return &leaf->values[i];
    }
    return nullptr;
  }
  [[nodiscard]] const Value* find(const Key& key) const {
    return const_cast<BPlusTree*>(this)->find(key);
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != nullptr;
  }

  /// Removes `key`. Returns false if absent.
  bool erase(const Key& key) {
    if (root_ == nullptr) return false;
    bool erased = false;
    erase_rec(root_, key, erased);
    if (erased) --size_;
    if (!root_->leaf && root_->count == 0) {
      auto* old = static_cast<InternalNode*>(root_);
      root_ = old->children[0];
      delete old;
    } else if (root_->leaf && root_->count == 0) {
      delete static_cast<LeafNode*>(root_);
      root_ = nullptr;
      first_leaf_ = nullptr;
    }
    return erased;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    destroy(root_);
    root_ = nullptr;
    first_leaf_ = nullptr;
    size_ = 0;
  }

  /// Forward iterator over (key, value) pairs in key order.
  class const_iterator {
   public:
    const_iterator() = default;
    const_iterator(const LeafNode* leaf, std::size_t index)
        : leaf_(leaf), index_(index) {}

    [[nodiscard]] const Key& key() const { return leaf_->keys[index_]; }
    [[nodiscard]] const Value& value() const { return leaf_->values[index_]; }
    std::pair<const Key&, const Value&> operator*() const {
      return {key(), value()};
    }
    const_iterator& operator++() {
      if (++index_ >= leaf_->count) {
        leaf_ = leaf_->next;
        index_ = 0;
      }
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.leaf_ == b.leaf_ && (a.leaf_ == nullptr || a.index_ == b.index_);
    }

   private:
    const LeafNode* leaf_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const_iterator begin() const {
    return size_ == 0 ? end() : const_iterator{first_leaf_, 0};
  }
  [[nodiscard]] const_iterator end() const { return const_iterator{}; }

  /// First element with key >= `key`.
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    const Node* n = root_;
    if (n == nullptr) return end();
    while (!n->leaf) {
      auto* in = static_cast<const InternalNode*>(n);
      n = in->children[child_index(in, key)];
    }
    auto* leaf = static_cast<const LeafNode*>(n);
    const std::size_t i = leaf_lower_bound(leaf, key);
    if (i < leaf->count) return const_iterator{leaf, i};
    return leaf->next != nullptr ? const_iterator{leaf->next, 0} : end();
  }

  /// Checks all structural invariants; aborts on violation. O(n).
  void validate() const {
    if (root_ == nullptr) {
      TAPESIM_ASSERT(size_ == 0 && first_leaf_ == nullptr);
      return;
    }
    std::size_t counted = 0;
    const LeafNode* leftmost = nullptr;
    const int depth = validate_rec(root_, nullptr, nullptr, true, counted,
                                   leftmost);
    (void)depth;
    TAPESIM_ASSERT_MSG(counted == size_, "size bookkeeping diverged");
    TAPESIM_ASSERT_MSG(leftmost == first_leaf_, "leaf chain head diverged");
    // Leaf chain must enumerate exactly `size_` keys in strict order.
    std::size_t chained = 0;
    const Key* prev = nullptr;
    for (const LeafNode* l = first_leaf_; l != nullptr; l = l->next) {
      for (std::size_t i = 0; i < l->count; ++i) {
        if (prev != nullptr) TAPESIM_ASSERT(*prev < l->keys[i]);
        prev = &l->keys[i];
        ++chained;
      }
    }
    TAPESIM_ASSERT_MSG(chained == size_, "leaf chain missed entries");
  }

 private:
  void swap(BPlusTree& other) noexcept {
    std::swap(root_, other.root_);
    std::swap(first_leaf_, other.first_leaf_);
    std::swap(size_, other.size_);
  }

  static std::size_t leaf_lower_bound(const LeafNode* leaf, const Key& key) {
    std::size_t lo = 0;
    std::size_t hi = leaf->count;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (leaf->keys[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Index of the child an access for `key` must descend into.
  static std::size_t child_index(const InternalNode* n, const Key& key) {
    std::size_t lo = 0;
    std::size_t hi = n->count;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (n->keys[mid] < key || (!(key < n->keys[mid]))) {
        // key >= keys[mid] → go right of separator mid
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  using SplitResult = std::optional<std::pair<Key, Node*>>;

  SplitResult insert_rec(Node* node, const Key& key, Value&& value,
                         bool& inserted) {
    if (node->leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      const std::size_t pos = leaf_lower_bound(leaf, key);
      if (pos < leaf->count && !(key < leaf->keys[pos]) &&
          !(leaf->keys[pos] < key)) {
        inserted = false;
        return std::nullopt;
      }
      inserted = true;
      if (leaf->count < kLeafMax) {
        leaf_insert_at(leaf, pos, key, std::move(value));
        return std::nullopt;
      }
      // Split: left keeps ceil((kLeafMax+1)/2) of the kLeafMax+1 entries.
      auto* right = new LeafNode();
      const std::size_t total = kLeafMax + 1;
      const std::size_t left_n = (total + 1) / 2;
      // Conceptually insert, then cut at left_n. Do it without a temp array.
      if (pos < left_n) {
        // New entry lands in the left leaf.
        for (std::size_t i = left_n - 1; i < kLeafMax; ++i) {
          right->keys[i - (left_n - 1)] = std::move(leaf->keys[i]);
          right->values[i - (left_n - 1)] = std::move(leaf->values[i]);
        }
        right->count = static_cast<std::uint32_t>(kLeafMax - (left_n - 1));
        leaf->count = static_cast<std::uint32_t>(left_n - 1);
        leaf_insert_at(leaf, pos, key, std::move(value));
      } else {
        for (std::size_t i = left_n; i < kLeafMax; ++i) {
          right->keys[i - left_n] = std::move(leaf->keys[i]);
          right->values[i - left_n] = std::move(leaf->values[i]);
        }
        right->count = static_cast<std::uint32_t>(kLeafMax - left_n);
        leaf->count = static_cast<std::uint32_t>(left_n);
        leaf_insert_at(right, pos - left_n, key, std::move(value));
      }
      right->next = leaf->next;
      leaf->next = right;
      return std::make_pair(right->keys[0], static_cast<Node*>(right));
    }

    auto* in = static_cast<InternalNode*>(node);
    const std::size_t ci = child_index(in, key);
    auto split = insert_rec(in->children[ci], key, std::move(value), inserted);
    if (!split) return std::nullopt;
    // Insert (split->first, split->second) after child ci.
    if (in->count < kChildMax - 1) {
      internal_insert_at(in, ci, split->first, split->second);
      return std::nullopt;
    }
    // Split the internal node. Gather the would-be sequence implicitly.
    // Simpler approach: materialize into temporaries (bounded by Fanout).
    std::array<Key, kChildMax> keys;      // kChildMax-1 existing + 1 new
    std::array<Node*, kChildMax + 1> kids;
    for (std::size_t i = 0; i < ci; ++i) keys[i] = in->keys[i];
    keys[ci] = split->first;
    for (std::size_t i = ci; i < in->count; ++i) keys[i + 1] = in->keys[i];
    for (std::size_t i = 0; i <= ci; ++i) kids[i] = in->children[i];
    kids[ci + 1] = split->second;
    for (std::size_t i = ci + 1; i <= in->count; ++i)
      kids[i + 1] = in->children[i];

    const std::size_t total_keys = in->count + 1;        // == kChildMax
    const std::size_t mid = total_keys / 2;              // key promoted up
    auto* right = new InternalNode();
    in->count = static_cast<std::uint32_t>(mid);
    for (std::size_t i = 0; i < mid; ++i) in->keys[i] = keys[i];
    for (std::size_t i = 0; i <= mid; ++i) in->children[i] = kids[i];
    right->count = static_cast<std::uint32_t>(total_keys - mid - 1);
    for (std::size_t i = 0; i < right->count; ++i)
      right->keys[i] = keys[mid + 1 + i];
    for (std::size_t i = 0; i <= right->count; ++i)
      right->children[i] = kids[mid + 1 + i];
    return std::make_pair(keys[mid], static_cast<Node*>(right));
  }

  static void leaf_insert_at(LeafNode* leaf, std::size_t pos, const Key& key,
                             Value&& value) {
    for (std::size_t i = leaf->count; i > pos; --i) {
      leaf->keys[i] = std::move(leaf->keys[i - 1]);
      leaf->values[i] = std::move(leaf->values[i - 1]);
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = std::move(value);
    ++leaf->count;
  }

  static void internal_insert_at(InternalNode* in, std::size_t ci,
                                 const Key& key, Node* right_child) {
    for (std::size_t i = in->count; i > ci; --i) {
      in->keys[i] = std::move(in->keys[i - 1]);
      in->children[i + 1] = in->children[i];
    }
    in->keys[ci] = key;
    in->children[ci + 1] = right_child;
    ++in->count;
  }

  /// Returns true if `node` underflowed and the parent must rebalance.
  bool erase_rec(Node* node, const Key& key, bool& erased) {
    if (node->leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      const std::size_t pos = leaf_lower_bound(leaf, key);
      if (pos >= leaf->count || key < leaf->keys[pos] ||
          leaf->keys[pos] < key) {
        erased = false;
        return false;
      }
      erased = true;
      for (std::size_t i = pos + 1; i < leaf->count; ++i) {
        leaf->keys[i - 1] = std::move(leaf->keys[i]);
        leaf->values[i - 1] = std::move(leaf->values[i]);
      }
      --leaf->count;
      return leaf->count < kLeafMin;
    }

    auto* in = static_cast<InternalNode*>(node);
    const std::size_t ci = child_index(in, key);
    const bool underflow = erase_rec(in->children[ci], key, erased);
    if (!underflow) return false;
    rebalance_child(in, ci);
    return in->count + 1 < kChildMin;
  }

  void rebalance_child(InternalNode* parent, std::size_t ci) {
    Node* child = parent->children[ci];
    Node* left_n = ci > 0 ? parent->children[ci - 1] : nullptr;
    Node* right_n = ci < parent->count ? parent->children[ci + 1] : nullptr;

    if (child->leaf) {
      auto* leaf = static_cast<LeafNode*>(child);
      auto* lleaf = static_cast<LeafNode*>(left_n);
      auto* rleaf = static_cast<LeafNode*>(right_n);
      if (lleaf != nullptr && lleaf->count > kLeafMin) {
        // Borrow the largest entry from the left sibling.
        for (std::size_t i = leaf->count; i > 0; --i) {
          leaf->keys[i] = std::move(leaf->keys[i - 1]);
          leaf->values[i] = std::move(leaf->values[i - 1]);
        }
        leaf->keys[0] = std::move(lleaf->keys[lleaf->count - 1]);
        leaf->values[0] = std::move(lleaf->values[lleaf->count - 1]);
        ++leaf->count;
        --lleaf->count;
        parent->keys[ci - 1] = leaf->keys[0];
        return;
      }
      if (rleaf != nullptr && rleaf->count > kLeafMin) {
        // Borrow the smallest entry from the right sibling.
        leaf->keys[leaf->count] = std::move(rleaf->keys[0]);
        leaf->values[leaf->count] = std::move(rleaf->values[0]);
        ++leaf->count;
        for (std::size_t i = 1; i < rleaf->count; ++i) {
          rleaf->keys[i - 1] = std::move(rleaf->keys[i]);
          rleaf->values[i - 1] = std::move(rleaf->values[i]);
        }
        --rleaf->count;
        parent->keys[ci] = rleaf->keys[0];
        return;
      }
      // Merge with a sibling (prefer left so the chain fix is local).
      if (lleaf != nullptr) {
        merge_leaves(parent, ci - 1, lleaf, leaf);
      } else {
        TAPESIM_ASSERT(rleaf != nullptr);
        merge_leaves(parent, ci, leaf, rleaf);
      }
      return;
    }

    auto* inode = static_cast<InternalNode*>(child);
    auto* left_sib = static_cast<InternalNode*>(left_n);
    auto* right_sib = static_cast<InternalNode*>(right_n);
    if (left_sib != nullptr && left_sib->count + 1 > kChildMin) {
      // Rotate right through the parent separator.
      for (std::size_t i = inode->count; i > 0; --i)
        inode->keys[i] = std::move(inode->keys[i - 1]);
      for (std::size_t i = inode->count + 1; i > 0; --i)
        inode->children[i] = inode->children[i - 1];
      inode->keys[0] = std::move(parent->keys[ci - 1]);
      inode->children[0] = left_sib->children[left_sib->count];
      ++inode->count;
      parent->keys[ci - 1] = std::move(left_sib->keys[left_sib->count - 1]);
      --left_sib->count;
      return;
    }
    if (right_sib != nullptr && right_sib->count + 1 > kChildMin) {
      // Rotate left through the parent separator.
      inode->keys[inode->count] = std::move(parent->keys[ci]);
      inode->children[inode->count + 1] = right_sib->children[0];
      ++inode->count;
      parent->keys[ci] = std::move(right_sib->keys[0]);
      for (std::size_t i = 1; i < right_sib->count; ++i)
        right_sib->keys[i - 1] = std::move(right_sib->keys[i]);
      for (std::size_t i = 1; i <= right_sib->count; ++i)
        right_sib->children[i - 1] = right_sib->children[i];
      --right_sib->count;
      return;
    }
    if (left_sib != nullptr) {
      merge_internals(parent, ci - 1, left_sib, inode);
    } else {
      TAPESIM_ASSERT(right_sib != nullptr);
      merge_internals(parent, ci, inode, right_sib);
    }
  }

  /// Merges `right` into `left`; separator at parent->keys[sep] disappears.
  void merge_leaves(InternalNode* parent, std::size_t sep, LeafNode* left,
                    LeafNode* right) {
    for (std::size_t i = 0; i < right->count; ++i) {
      left->keys[left->count + i] = std::move(right->keys[i]);
      left->values[left->count + i] = std::move(right->values[i]);
    }
    left->count += right->count;
    left->next = right->next;
    remove_parent_slot(parent, sep);
    delete right;
  }

  void merge_internals(InternalNode* parent, std::size_t sep,
                       InternalNode* left, InternalNode* right) {
    left->keys[left->count] = std::move(parent->keys[sep]);
    ++left->count;
    for (std::size_t i = 0; i < right->count; ++i)
      left->keys[left->count + i] = std::move(right->keys[i]);
    for (std::size_t i = 0; i <= right->count; ++i)
      left->children[left->count + i] = right->children[i];
    left->count += right->count;
    remove_parent_slot(parent, sep);
    delete right;
  }

  static void remove_parent_slot(InternalNode* parent, std::size_t sep) {
    for (std::size_t i = sep + 1; i < parent->count; ++i) {
      parent->keys[i - 1] = std::move(parent->keys[i]);
      parent->children[i] = parent->children[i + 1];
    }
    --parent->count;
  }

  void destroy(Node* n) {
    if (n == nullptr) return;
    if (n->leaf) {
      delete static_cast<LeafNode*>(n);
      return;
    }
    auto* in = static_cast<InternalNode*>(n);
    for (std::size_t i = 0; i <= in->count; ++i) destroy(in->children[i]);
    delete in;
  }

  /// Returns subtree depth; checks key bounds and occupancy.
  int validate_rec(const Node* n, const Key* lo, const Key* hi, bool is_root,
                   std::size_t& counted, const LeafNode*& leftmost) const {
    if (n->leaf) {
      auto* leaf = static_cast<const LeafNode*>(n);
      if (!is_root) TAPESIM_ASSERT(leaf->count >= kLeafMin);
      TAPESIM_ASSERT(leaf->count <= kLeafMax);
      for (std::size_t i = 0; i < leaf->count; ++i) {
        if (i > 0) TAPESIM_ASSERT(leaf->keys[i - 1] < leaf->keys[i]);
        if (lo != nullptr) TAPESIM_ASSERT(!(leaf->keys[i] < *lo));
        if (hi != nullptr) TAPESIM_ASSERT(leaf->keys[i] < *hi);
      }
      counted += leaf->count;
      if (leftmost == nullptr) leftmost = leaf;
      return 1;
    }
    auto* in = static_cast<const InternalNode*>(n);
    if (!is_root) TAPESIM_ASSERT(in->count + 1 >= kChildMin);
    TAPESIM_ASSERT(is_root ? in->count >= 1 : true);
    TAPESIM_ASSERT(in->count <= kChildMax - 1);
    int depth = -1;
    for (std::size_t i = 0; i <= in->count; ++i) {
      const Key* clo = i == 0 ? lo : &in->keys[i - 1];
      const Key* chi = i == in->count ? hi : &in->keys[i];
      const int d =
          validate_rec(in->children[i], clo, chi, false, counted, leftmost);
      if (depth == -1) depth = d;
      TAPESIM_ASSERT_MSG(depth == d, "leaves at different depths");
    }
    for (std::size_t i = 1; i < in->count; ++i)
      TAPESIM_ASSERT(in->keys[i - 1] < in->keys[i]);
    return depth + 1;
  }

  Node* root_ = nullptr;
  LeafNode* first_leaf_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tapesim::catalog
