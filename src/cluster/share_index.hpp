// Best-fit share index of the time-shared executor: up nodes in Libra's
// selection order — committed share descending, node id ascending — kept
// in fixed-capacity sorted blocks, so a re-key moves a few entries inside
// one block instead of rebalancing a red-black tree.
//
// Layout: each block holds at most kBlockCapacity entries in key order; a
// directory lists the blocks in key order with each block's greatest
// entry, and every node records its block and its slot. A re-key that
// keeps the node strictly between two other entries of its block is an
// insertion step inside the block; any other re-key removes the entry and
// re-inserts it into the block found by binary search over the directory,
// splitting a full block in half. A block that falls below a quarter full
// is merged into a neighbour (or shares entries with it when both do not
// fit in one block), so every block but a sole one is at least a quarter
// full and the directory holds at most 4n/B + 1 blocks.
//
// Cost: a re-key that splits, merges or drops no block is O(log n + B). A
// split, merge or drop also inserts into or erases from the directory and
// renumbers the blocks after it, O(n/B). Each merge follows at least B/4
// removals from its block, and each split follows B/2 - 1 inserts into its
// block or a merge, so amortized a re-key costs O(log n + B + n/B^2).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cluster/node.hpp"

namespace utilrisk::cluster {

class ShareIndex {
 public:
  /// Entries per block: 1 KB, sixteen cache lines. A re-key shifts the
  /// entries of at most four blocks — its own, a neighbour it merges
  /// with, the block it enters and the one a split adds — whatever the
  /// node count.
  static constexpr std::uint32_t kBlockCapacity = 64;

  struct Entry {
    double committed = 0.0;
    NodeId id = 0;
  };

  /// Where a node's entry sits: its block's rank in key order, and its
  /// slot inside that block.
  struct Position {
    std::uint32_t rank = 0;
    std::uint32_t slot = 0;
  };

  /// Best-fit order: committed share descending, then node id ascending.
  template <typename A, typename B>
  [[nodiscard]] static bool before(const A& a, const B& b) {
    if (a.committed != b.committed) return a.committed > b.committed;
    return a.id < b.id;
  }

  /// Indexes nodes 0 .. node_count-1, each with committed share 0.
  explicit ShareIndex(std::uint32_t node_count)
      : loc_(node_count, Location{kAbsent, 0}) {
    // Room for the most blocks the fill rule allows (4n/B + 1, plus the
    // transient one a split adds), so blocks_ never reallocates.
    const std::size_t max_blocks = 4 * std::size_t{node_count} /
                                       kBlockCapacity + 2;
    blocks_.reserve(max_blocks);
    free_blocks_.reserve(max_blocks);
    dir_.reserve(max_blocks);
    for (NodeId id = 0; id < node_count; ++id) place(Entry{0.0, id});
  }

  [[nodiscard]] bool contains(NodeId id) const {
    return loc_[id].block != kAbsent;
  }

  /// Adds node `id` with committed share `committed`. Precondition: absent.
  void insert(NodeId id, double committed) {
    assert(!contains(id));
    place(Entry{committed, id});
  }

  /// Removes node `id`. Precondition: present.
  void erase(NodeId id) {
    assert(contains(id));
    const Location loc = loc_[id];
    loc_[id].block = kAbsent;
    remove_slot(loc.block, loc.slot);
  }

  /// Re-keys node `id` to `committed`. Precondition: present.
  void update(NodeId id, double committed) {
    assert(contains(id));
    Location& loc = loc_[id];
    Block& b = blocks_[loc.block];
    Entry* e = b.entries.data();
    std::uint32_t slot = loc.slot;
    if (e[slot].committed == committed) return;
    const Entry key{committed, id};
    const std::uint32_t m = b.size;
    // The block's first and last entries other than this one. When the new
    // key lies strictly between them it belongs in this block, at a rank an
    // insertion step reaches; otherwise it may belong in another block.
    if (m >= 3 && before(e[slot == 0 ? 1 : 0], key) &&
        before(key, e[slot == m - 1 ? m - 2 : m - 1])) {
      while (slot > 0 && before(key, e[slot - 1])) {
        e[slot] = e[slot - 1];
        loc_[e[slot].id].slot = slot;
        --slot;
      }
      while (slot + 1 < m && before(e[slot + 1], key)) {
        e[slot] = e[slot + 1];
        loc_[e[slot].id].slot = slot;
        ++slot;
      }
      e[slot] = key;
      loc.slot = slot;
      note_last(b);
      return;
    }
    const Location old = loc;
    remove_slot(old.block, old.slot);
    place(key);
  }

  /// Visits entries in best-fit order, starting at the first whose
  /// committed share is at most `max_committed_bound`, until `visit(id,
  /// committed)` returns false.
  template <typename Visit>
  void for_each_from(double max_committed_bound, Visit&& visit) const {
    // Entries above the bound sort strictly before this probe; entries at
    // exactly the bound are still visited.
    const Entry probe{max_committed_bound, 0};
    auto dir = std::lower_bound(
        dir_.begin(), dir_.end(), probe,
        [](const DirEntry& d, const Entry& p) { return before(d, p); });
    if (dir == dir_.end()) return;
    const Block* b = &blocks_[dir->block];
    const Entry* it = std::lower_bound(
        b->entries.data(), b->entries.data() + b->size, probe,
        [](const Entry& e, const Entry& p) { return before(e, p); });
    for (;;) {
      for (const Entry* end = b->entries.data() + b->size; it != end; ++it) {
        if (!visit(it->id, it->committed)) return;
      }
      if (++dir == dir_.end()) return;
      b = &blocks_[dir->block];
      it = b->entries.data();
    }
  }

  /// Number of blocks in the directory.
  [[nodiscard]] std::size_t block_count() const { return dir_.size(); }

  /// The entries of the block at `rank` in key order.
  [[nodiscard]] std::span<const Entry> block(std::size_t rank) const {
    const Block& b = blocks_[dir_[rank].block];
    return {b.entries.data(), b.size};
  }

  /// Where node `id`'s entry sits. Precondition: present.
  [[nodiscard]] Position position(NodeId id) const {
    assert(contains(id));
    return Position{blocks_[loc_[id].block].rank, loc_[id].slot};
  }

 private:
  /// A block below this many entries is merged into a neighbour.
  static constexpr std::uint32_t kMinFill = kBlockCapacity / 4;
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  struct Block {
    std::uint32_t size = 0;
    std::uint32_t rank = 0;  ///< position in dir_
    std::array<Entry, kBlockCapacity> entries;
  };

  /// A directory slot: the block's greatest entry (its last), kept inline
  /// so the binary search reads no block.
  struct DirEntry {
    double committed = 0.0;
    NodeId id = 0;
    std::uint32_t block = 0;
  };

  struct Location {
    std::uint32_t block = kAbsent;  ///< kAbsent: the node is not indexed
    std::uint32_t slot = 0;
  };

  [[nodiscard]] std::uint32_t acquire_block() {
    if (!free_blocks_.empty()) {
      const std::uint32_t block = free_blocks_.back();
      free_blocks_.pop_back();
      blocks_[block].size = 0;
      return block;
    }
    blocks_.emplace_back();
    return static_cast<std::uint32_t>(blocks_.size() - 1);
  }

  /// Copies `b`'s last entry into its directory slot.
  void note_last(const Block& b) {
    DirEntry& d = dir_[b.rank];
    d.committed = b.entries[b.size - 1].committed;
    d.id = b.entries[b.size - 1].id;
  }

  /// Points each entry of `block` from slot `from` on at its block and
  /// slot.
  void relocate(std::uint32_t block, std::uint32_t from) {
    const Block& b = blocks_[block];
    for (std::uint32_t slot = from; slot < b.size; ++slot) {
      loc_[b.entries[slot].id] = Location{block, slot};
    }
  }

  /// Re-numbers the blocks' ranks from directory position `from` on.
  void renumber(std::size_t from) {
    for (std::size_t rank = from; rank < dir_.size(); ++rank) {
      blocks_[dir_[rank].block].rank = static_cast<std::uint32_t>(rank);
    }
  }

  /// Inserts `key`, which no entry equals, into the block the directory
  /// names for it.
  void place(const Entry& key) {
    if (dir_.empty()) {
      const std::uint32_t block = acquire_block();
      blocks_[block].rank = 0;
      dir_.push_back(DirEntry{key.committed, key.id, block});
    }
    // The first block whose last entry sorts after the key; past the last
    // block, the key extends the last one.
    auto found = std::lower_bound(
        dir_.begin(), dir_.end(), key,
        [](const DirEntry& d, const Entry& k) { return before(d, k); });
    std::size_t rank = found == dir_.end()
                           ? dir_.size() - 1
                           : static_cast<std::size_t>(found - dir_.begin());
    if (blocks_[dir_[rank].block].size == kBlockCapacity) {
      split(rank);
      if (before(dir_[rank], key)) ++rank;
    }
    const std::uint32_t block = dir_[rank].block;
    Block& b = blocks_[block];
    Entry* e = b.entries.data();
    const std::uint32_t slot = static_cast<std::uint32_t>(
        std::lower_bound(e, e + b.size, key,
                         [](const Entry& a, const Entry& k) {
                           return before(a, k);
                         }) -
        e);
    std::copy_backward(e + slot, e + b.size, e + b.size + 1);
    e[slot] = key;
    ++b.size;
    relocate(block, slot);
    note_last(b);
  }

  /// Moves the upper half of the full block at `rank` into a new block
  /// right after it.
  void split(std::size_t rank) {
    const std::uint32_t upper = acquire_block();
    Block& lower_block = blocks_[dir_[rank].block];
    Block& upper_block = blocks_[upper];
    constexpr std::uint32_t kHalf = kBlockCapacity / 2;
    std::copy(lower_block.entries.begin() + kHalf, lower_block.entries.end(),
              upper_block.entries.begin());
    upper_block.size = kBlockCapacity - kHalf;
    lower_block.size = kHalf;
    dir_.insert(dir_.begin() + static_cast<std::ptrdiff_t>(rank) + 1,
                DirEntry{0.0, 0, upper});
    renumber(rank + 1);
    relocate(upper, 0);
    note_last(lower_block);
    note_last(upper_block);
  }

  /// Removes the entry at `slot` of `block`, then drops the block if it
  /// emptied or merges it if it fell below kMinFill.
  void remove_slot(std::uint32_t block, std::uint32_t slot) {
    Block& b = blocks_[block];
    Entry* e = b.entries.data();
    std::copy(e + slot + 1, e + b.size, e + slot);
    --b.size;
    const std::size_t rank = b.rank;
    if (b.size == 0) {
      drop(rank);
      return;
    }
    relocate(block, slot);
    note_last(b);
    if (b.size < kMinFill && dir_.size() > 1) {
      merge(rank + 1 < dir_.size() ? rank : rank - 1);
    }
  }

  /// Takes the block at `rank` out of the directory.
  void drop(std::size_t rank) {
    free_blocks_.push_back(dir_[rank].block);
    dir_.erase(dir_.begin() + static_cast<std::ptrdiff_t>(rank));
    renumber(rank);
  }

  /// Joins the blocks at `rank` and `rank + 1`: into one when they fit,
  /// else into two of equal size (within one), each then at least half
  /// full.
  void merge(std::size_t rank) {
    const std::uint32_t left = dir_[rank].block;
    const std::uint32_t right = dir_[rank + 1].block;
    Block& l = blocks_[left];
    Block& r = blocks_[right];
    const std::uint32_t total = l.size + r.size;
    if (total <= kBlockCapacity) {
      const std::uint32_t from = l.size;
      std::copy(r.entries.begin(), r.entries.begin() + r.size,
                l.entries.begin() + l.size);
      l.size = total;
      relocate(left, from);
      note_last(l);
      drop(rank + 1);
      return;
    }
    const std::uint32_t keep = total / 2;
    if (l.size > keep) {
      const std::uint32_t moved = l.size - keep;
      std::copy_backward(r.entries.begin(), r.entries.begin() + r.size,
                         r.entries.begin() + r.size + moved);
      std::copy(l.entries.begin() + keep, l.entries.begin() + l.size,
                r.entries.begin());
      l.size = keep;
      r.size += moved;
      relocate(right, 0);
    } else {
      const std::uint32_t moved = keep - l.size;
      const std::uint32_t from = l.size;
      std::copy(r.entries.begin(), r.entries.begin() + moved,
                l.entries.begin() + l.size);
      std::copy(r.entries.begin() + moved, r.entries.begin() + r.size,
                r.entries.begin());
      l.size = keep;
      r.size -= moved;
      relocate(left, from);
      relocate(right, 0);
    }
    note_last(l);
    note_last(r);
  }

  /// Block storage; a dropped block's index goes to free_blocks_.
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> free_blocks_;
  /// The blocks in key order.
  std::vector<DirEntry> dir_;
  /// Each node's block and slot; block kAbsent while the node is down.
  std::vector<Location> loc_;
};

}  // namespace utilrisk::cluster
