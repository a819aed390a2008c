/// \file subtree_cache.h
/// \brief Memoized output blocks of evaluator subtrees.
///
/// The evaluator keys each non-leaf operator's output on the structural
/// fingerprint of its subtree (algebra/fingerprint.h) composed with the node
/// ordinals of the TabQ order and the data-version stamps of every relation
/// the subtree scans (Relation::data_version). Because the rid scheme is
/// deterministic per (node ordinal, row index), a cached block -- values,
/// rids, preds and lineage alike -- is bit-identical to what recomputation
/// would produce, so hits are safe for the whole NedExplain pass including
/// successor tracing. Key derivation and the invalidation argument live in
/// docs/CACHING.md.
///
/// Thread-safe: one mutex around the LRU. Entries are immutable blocks
/// (exec/block.h) held by shared_ptr-to-const, so a hit shares the block
/// instead of copying it and an eviction never invalidates a block an
/// in-flight evaluation still holds. Non-leaf blocks own their values, so an
/// entry never points into the snapshot it was computed from.

#ifndef NED_CACHE_SUBTREE_CACHE_H_
#define NED_CACHE_SUBTREE_CACHE_H_

#include <memory>
#include <mutex>
#include <string>

#include "cache/lru.h"
#include "exec/block.h"

namespace ned {

/// Shared, bounded cache of evaluated subtree blocks. An entry weighs its
/// block's real size, Block::bytes() -- the same bytes an evaluation charges
/// its memory budget for it.
class SubtreeCache {
 public:
  using Entry = std::shared_ptr<const Block>;

  explicit SubtreeCache(size_t byte_budget) : lru_(byte_budget) {}

  /// A zero-budget cache is disabled: the evaluator skips key derivation
  /// entirely, so attaching one is byte-for-byte the cache-free baseline
  /// (even under NED_FORCE_SUBTREE_CACHE, which only replaces a null cache).
  bool enabled() const { return lru_.byte_budget() > 0; }

  /// Returns the cached block for `key`, or nullptr on a miss.
  Entry Lookup(const std::string& key);

  /// Caches `block` under `key`. No-op (counted as rejected) when the block
  /// exceeds the whole budget.
  void Insert(const std::string& key, Entry block);

  /// Drops every entry (stats other than occupancy are preserved).
  void Clear();

  LruStats stats() const;

 private:
  mutable std::mutex mu_;
  ByteBudgetLru<Entry> lru_;
};

}  // namespace ned

#endif  // NED_CACHE_SUBTREE_CACHE_H_
