#include "sb/list_db.hpp"

#include <atomic>
#include <limits>
#include <unordered_map>
#include <utility>
#include <variant>

namespace sbp::sb {

namespace {

/// Source of ListDb::id; 0 is the empty state's id.
std::atomic<std::uint64_t> next_list_db_id{1};

/// 64-bit FNV-1a over words: the memo's bucket key. Hits still compare
/// the full update content, so a collision costs a compare, never a
/// wrong state.
class TransitionHash {
 public:
  void add(std::uint64_t word) noexcept {
    h_ = (h_ ^ word) * 0x100000001b3ULL;
  }
  template <class T>
  void add_all(const std::vector<T>& words) noexcept {
    add(words.size());
    for (const auto word : words) add(word);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

void ListDb::contains_many32(std::span<const crypto::Prefix32> prefixes,
                             std::span<bool> out) const noexcept {
  if (store) {
    store->contains_many32(prefixes, out);
  } else {
    raw.contains_many32(prefixes, out);
  }
}

std::size_t ListDb::size() const noexcept {
  return store ? store->size() : raw.size();
}

std::size_t ListDb::memory_bytes() const noexcept {
  return store ? store->memory_bytes() : raw.memory_bytes();
}

struct ListDbMemo::Table {
  /// One transition: its key (base id, store settings, update content)
  /// and the state it produced, which owns the entry's lifetime.
  struct Entry {
    std::uint64_t base_id = 0;
    storage::StoreKind kind = storage::StoreKind::kDeltaCoded;
    std::size_t bloom_bits = 0;
    std::variant<std::vector<Chunk>, V4SliceUpdate> update;
    const ListDb* db = nullptr;
    std::weak_ptr<const ListDb> weak;
  };

  /// The live state whose entry lies under `hash` and satisfies `same`.
  template <class Same>
  ListDbPtr find(std::uint64_t hash, Same&& same) {
    const auto [first, last] = entries.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      if (!same(it->second)) continue;
      if (ListDbPtr db = it->second.weak.lock()) {
        ++hits;
        return db;
      }
    }
    ++misses;
    return nullptr;
  }

  /// Assigns `db` its id and shares it; its deleter erases `entry`.
  static ListDbPtr publish(const std::shared_ptr<Table>& table,
                           std::uint64_t hash, Entry entry,
                           std::unique_ptr<ListDb> db) {
    db->id = next_list_db_id.fetch_add(1, std::memory_order_relaxed);
    entry.db = db.get();
    ListDbPtr shared(
        db.release(), [weak_table = std::weak_ptr<Table>(table),
                       hash](const ListDb* dying) {
          if (const auto owner = weak_table.lock()) {
            const auto [first, last] = owner->entries.equal_range(hash);
            for (auto it = first; it != last; ++it) {
              if (it->second.db != dying) continue;
              owner->entries.erase(it);
              break;
            }
          }
          delete dying;
        });
    entry.weak = shared;
    table->entries.emplace(hash, std::move(entry));
    return shared;
  }

  std::unordered_multimap<std::uint64_t, Entry> entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // v3 store-build scratch: the miss path is the only place it is used.
  std::vector<crypto::Prefix32> build_prefixes;
  std::vector<crypto::Prefix32> build_subs;
  storage::PrefixBatch build_batch{4};
};

ListDbMemo::ListDbMemo() : table_(std::make_shared<Table>()) {}

ListDbPtr ListDbMemo::apply_chunks(const ListDbPtr& base,
                                   storage::StoreKind kind,
                                   std::size_t bloom_bits,
                                   const std::vector<Chunk>& chunks) {
  if (chunks.empty()) return base;
  const std::uint64_t base_id = base ? base->id : 0;
  TransitionHash hash;
  hash.add(base_id);
  hash.add(static_cast<std::uint64_t>(kind));
  hash.add(bloom_bits);
  for (const Chunk& chunk : chunks) {
    hash.add(chunk.number);
    hash.add(static_cast<std::uint64_t>(chunk.type));
    hash.add_all(chunk.prefixes);
  }
  Table& table = *table_;
  if (ListDbPtr hit = table.find(hash.value(), [&](const Table::Entry& e) {
        const auto* update = std::get_if<std::vector<Chunk>>(&e.update);
        return e.base_id == base_id && e.kind == kind &&
               e.bloom_bits == bloom_bits && update != nullptr &&
               *update == chunks;
      })) {
    return hit;
  }

  auto db = std::make_unique<ListDb>();
  if (base) db->chunks = base->chunks;
  for (const Chunk& chunk : chunks) db->chunks.apply(chunk);
  // effective_prefixes_into yields a sorted, deduplicated set, so the
  // batch adopts it directly.
  db->chunks.effective_prefixes_into(std::numeric_limits<std::uint32_t>::max(),
                                     table.build_prefixes, table.build_subs);
  table.build_batch.assign_sorted32(table.build_prefixes);
  db->store = storage::make_store(kind, table.build_batch, bloom_bits);
  Table::Entry entry;
  entry.base_id = base_id;
  entry.kind = kind;
  entry.bloom_bits = bloom_bits;
  entry.update = chunks;
  return Table::publish(table_, hash.value(), std::move(entry),
                        std::move(db));
}

ListDbPtr ListDbMemo::apply_slice(const ListDbPtr& base,
                                  const V4SliceUpdate& slice) {
  // The v4 state is the raw set alone, whatever the client's store
  // settings, so they are not part of the key.
  const std::uint64_t base_id = base ? base->id : 0;
  TransitionHash hash;
  hash.add(base_id);
  hash.add(slice.full_reset);
  hash.add(slice.new_state);
  hash.add(slice.checksum);
  hash.add_all(slice.removal_indices);
  hash.add_all(slice.additions);
  Table& table = *table_;
  if (ListDbPtr hit = table.find(hash.value(), [&](const Table::Entry& e) {
        const auto* update = std::get_if<V4SliceUpdate>(&e.update);
        return e.base_id == base_id && update != nullptr && *update == slice;
      })) {
    return hit;
  }

  auto db = std::make_unique<ListDb>();
  bool applied;
  if (slice.full_reset) {
    applied = db->raw.reset(slice.additions);
  } else {
    if (base) db->raw = base->raw;
    applied = db->raw.apply_slice(slice.removal_indices, slice.additions);
  }
  if (!applied || db->raw.checksum() != slice.checksum) return nullptr;
  db->state = slice.new_state;
  Table::Entry entry;
  entry.base_id = base_id;
  entry.update = slice;
  return Table::publish(table_, hash.value(), std::move(entry),
                        std::move(db));
}

std::size_t ListDbMemo::live_states() const noexcept {
  return table_->entries.size();
}

std::uint64_t ListDbMemo::hits() const noexcept { return table_->hits; }

std::uint64_t ListDbMemo::misses() const noexcept { return table_->misses; }

}  // namespace sbp::sb
