// The IR-keyed result cache behind `bsr serve`.
//
// Keys are 64-bit fingerprints of (reflected ProtocolIR, ParamEnv, request
// mode + options) — see analysis/static/fingerprint.h for the hash and
// docs/SERVE.md for the soundness argument. Values are the complete response
// payload (body bytes + exit code), so a hit is served byte-identical to the
// cold run with zero simulator steps.
//
// Eviction is plain LRU under two budgets: entry count and total payload
// bytes. Both are generous defaults tuned for a workstation daemon; `bsr
// serve --cache-entries/--cache-bytes` overrides them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace bsr::serve {

/// One cached analysis result: the exact payload a cold run produced.
struct CacheEntry {
  int exit = 0;       ///< Exit code the equivalent CLI run would return.
  /// Payload bytes as the envelope embeds them: a JSON document, or a
  /// text payload already encoded as a JSON string. The byte budget counts
  /// these encoded bytes. Immutable and shared, so a hit copies a pointer,
  /// not the payload.
  std::shared_ptr<const std::string> body;
};

/// Monotonic counters exposed through the `stats` request.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Thread-safe LRU cache from fingerprint keys to result payloads.
class ResultCache {
 public:
  ResultCache(std::size_t max_entries, std::size_t max_bytes);

  /// Returns true and fills `out` on a hit (refreshing recency); counts a
  /// miss otherwise.
  bool lookup(std::uint64_t key, CacheEntry* out);

  /// Inserts or replaces the entry for `key`, then evicts LRU entries until
  /// both budgets hold. An entry larger than the byte budget is not cached.
  void insert(std::uint64_t key, CacheEntry entry);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Node {
    std::uint64_t key;
    CacheEntry entry;
  };

  void evict_to_budget();  // caller holds mu_

  const std::size_t max_entries_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> index_;
  CacheStats stats_;
};

}  // namespace bsr::serve
