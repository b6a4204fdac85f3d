// Shared, immutable client list databases.
//
// Every v3/v4 client of a provider filters against the same local prefix
// database (paper Section 2.2) -- which is what makes a full-hash request
// informative at all. A ListDb is one list's synced state, built once and
// never mutated afterwards:
//
//   * v3: the applied shavar chunks plus the prefix store built from their
//     effective set (raw / delta-coded / Bloom, Section 2.2.2);
//   * v4: the sorted raw-hash set plus its state token.
//
// Clients in the same state hold the same std::shared_ptr<const ListDb>;
// each client keeps only its private full-hash cache, backoff state and
// metrics. The null pointer is the empty state (never synced, or reset
// after a v4 desync).
//
// ListDbMemo interns the state transitions: (base state, store kind +
// Bloom bits, update content) -> resulting state. Every client still
// fetches and decodes its own reply through its own transport; the memo
// is a pure function of that decoded reply, so the first client to make a
// transition applies the chunks / slice and builds the store, and every
// later client making the same transition gets the same object back. A
// hit compares the full update content, never just a hash, and keys the
// base by ListDb::id, which is never reused -- a freed state whose
// address comes back cannot alias a live one. An entry lives exactly as
// long as its resulting state: the state's deleter removes it, so the
// memo's size is the number of live states it made, whatever the number
// of updates behind them.
//
// Threading: a memo, and every state it made, belongs to one thread at a
// time -- the simulation engine keeps one memo per shard, so the parallel
// tick needs no lock and hit counts do not depend on the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/chunk.hpp"
#include "sb/server.hpp"
#include "storage/prefix_store.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sb {

struct ListDb {
  /// Process-unique and never reused; the memo's key for transitions
  /// out of this state.
  std::uint64_t id = 0;
  /// v3: applied chunks and the store built from their effective set.
  ChunkStore chunks;
  std::unique_ptr<const storage::PrefixStore> store;
  /// v4: the sorted raw-hash set and the state token it is synced to.
  storage::RawHashStore raw;
  std::uint64_t state = 0;

  /// out[i] = prefixes[i] is in this list (sorted-probe batch).
  void contains_many32(std::span<const crypto::Prefix32> prefixes,
                       std::span<bool> out) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
};

using ListDbPtr = std::shared_ptr<const ListDb>;

class ListDbMemo {
 public:
  ListDbMemo();
  ListDbMemo(const ListDbMemo&) = delete;
  ListDbMemo& operator=(const ListDbMemo&) = delete;

  /// The v3 state `base` (null = empty) after applying `chunks`, its
  /// store built as `kind` / `bloom_bits`. Empty `chunks` returns `base`.
  [[nodiscard]] ListDbPtr apply_chunks(const ListDbPtr& base,
                                       storage::StoreKind kind,
                                       std::size_t bloom_bits,
                                       const std::vector<Chunk>& chunks);

  /// The v4 state `base` (null = empty) after applying `slice`; null when
  /// the slice does not apply or the resulting set fails its checksum
  /// (desync: the client falls back to the empty state).
  [[nodiscard]] ListDbPtr apply_slice(const ListDbPtr& base,
                                      const V4SliceUpdate& slice);

  /// States this memo made that some holder still references.
  [[nodiscard]] std::size_t live_states() const noexcept;
  /// Transitions answered with an existing state / built afresh.
  [[nodiscard]] std::uint64_t hits() const noexcept;
  [[nodiscard]] std::uint64_t misses() const noexcept;

 private:
  struct Table;
  /// Shared with each state's deleter, which erases the state's entry
  /// (and outlives the memo if a state does).
  std::shared_ptr<Table> table_;
};

}  // namespace sbp::sb
