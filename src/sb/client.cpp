#include "sb/client.hpp"

namespace sbp::sb {

bool Client::update() {
  if (!begin_update()) return false;

  UpdateRequest request;
  for (const auto& list : lists_) {
    UpdateRequest::ListState list_state;
    list_state.list_name = list.name;
    if (list.db) {
      for (const Chunk& c : list.db->chunks.adds()) {
        list_state.add_chunks.push_back(c.number);
      }
      for (const Chunk& c : list.db->chunks.subs()) {
        list_state.sub_chunks.push_back(c.number);
      }
    }
    request.lists.push_back(std::move(list_state));
  }

  const auto response = transport_.fetch_update_or_error(request);
  if (!finish_update(response.has_value(),
                     response ? response->next_update_after : 0)) {
    return false;
  }
  for (const auto& update : response->lists) {
    for (auto& list : lists_) {
      if (list.name != update.list_name) continue;
      list.db = memo_->apply_chunks(list.db, config_.store_kind,
                                    config_.bloom_bits, update.chunks);
    }
  }
  cache_.clear();  // an update discards cached full digests
  return true;
}

}  // namespace sbp::sb
