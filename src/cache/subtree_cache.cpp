#include "cache/subtree_cache.h"

namespace ned {

SubtreeCache::Entry SubtreeCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = lru_.Get(key);
  return hit.has_value() ? *hit : nullptr;
}

void SubtreeCache::Insert(const std::string& key, Entry block) {
  if (block == nullptr) return;
  const size_t bytes = block->bytes();
  std::lock_guard<std::mutex> lock(mu_);
  lru_.Put(key, std::move(block), bytes);
}

void SubtreeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.Clear();
}

LruStats SubtreeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.stats();
}

}  // namespace ned
