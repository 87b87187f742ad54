#include "serve/cache.h"

#include <utility>

namespace bsr::serve {

ResultCache::ResultCache(std::size_t max_entries, std::size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

bool ResultCache::lookup(std::uint64_t key, CacheEntry* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  *out = it->second->entry;
  return true;
}

void ResultCache::insert(std::uint64_t key, CacheEntry entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t size = entry.body->size();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.bytes -= it->second->entry.body->size();
    lru_.erase(it->second);
    index_.erase(it);
    --stats_.entries;
  }
  if (size > max_bytes_) return;  // would evict everything and still not fit
  lru_.push_front(Node{key, std::move(entry)});
  index_[key] = lru_.begin();
  ++stats_.entries;
  stats_.bytes += size;
  evict_to_budget();
}

void ResultCache::evict_to_budget() {
  while (!lru_.empty() &&
         (stats_.entries > max_entries_ || stats_.bytes > max_bytes_)) {
    const Node& victim = lru_.back();
    stats_.bytes -= victim.entry.body->size();
    index_.erase(victim.key);
    lru_.pop_back();
    --stats_.entries;
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bsr::serve
