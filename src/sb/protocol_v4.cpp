#include "sb/protocol_v4.hpp"

#include "storage/raw_hash_store.hpp"

namespace sbp::sb {

bool V4SlicedProtocol::update() {
  if (!begin_update()) return false;

  V4UpdateRequest request;
  for (const auto& list : lists_) {
    request.lists.push_back({list.name, list.db ? list.db->state : 0});
  }

  const auto response = transport_.fetch_v4_update_or_error(request);
  // Honor the server-set minimum wait before the next update.
  if (!finish_update(response.has_value(),
                     response ? response->minimum_wait : 0)) {
    return false;
  }

  bool all_applied = true;
  for (const auto& slice : response->lists) {
    for (auto& list : lists_) {
      if (list.name != slice.list_name) continue;
      list.db = memo_->apply_slice(list.db, slice);
      if (!list.db) {
        // Desynchronized: back to the empty state, so the next update
        // performs a full resync (the Update API's recovery discipline).
        ++metrics_.updates_failed;
        all_applied = false;
      }
    }
  }
  cache_.clear();  // an update discards cached full digests
  return all_applied;
}

std::uint64_t V4SlicedProtocol::list_state(std::string_view list_name) const {
  const ListDbPtr db = list_db(list_name);
  return db ? db->state : 0;
}

std::uint32_t V4SlicedProtocol::list_checksum(
    std::string_view list_name) const {
  for (const auto& list : lists_) {
    if (list.name != list_name) continue;
    return list.db ? list.db->raw.checksum()
                   : storage::RawHashStore::checksum_of({});
  }
  return 0;
}

}  // namespace sbp::sb
