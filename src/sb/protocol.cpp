#include "sb/protocol.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "sb/client.hpp"
#include "sb/lookup_api.hpp"
#include "sb/protocol_v4.hpp"

namespace sbp::sb {

PrefixProtocolClient::PrefixProtocolClient(Transport& transport,
                                           ClientConfig config,
                                           std::shared_ptr<ListDbMemo> memo)
    : ProtocolClient(transport, config),
      memo_(memo ? std::move(memo) : std::make_shared<ListDbMemo>()),
      cache_(config.full_hash_ttl),
      full_hash_backoff_(config.backoff, config.cookie ^ 0x5B5B5B5B),
      update_backoff_(config.backoff, config.cookie) {}

void PrefixProtocolClient::subscribe(std::string_view list_name) {
  for (const auto& list : lists_) {
    if (list.name == list_name) return;
  }
  lists_.push_back({std::string(list_name), nullptr});
}

bool PrefixProtocolClient::begin_update() {
  ++metrics_.updates_attempted;
  if (update_backoff_.can_request(transport_.clock().now())) return true;
  ++metrics_.backoff_suppressed;
  return false;
}

bool PrefixProtocolClient::finish_update(bool answered, std::uint64_t wait) {
  const std::uint64_t now = transport_.clock().now();
  if (!answered) {
    ++metrics_.updates_failed;
    update_backoff_.on_error(now);
    return false;
  }
  update_backoff_.on_success(now, wait);
  return true;
}

void PrefixProtocolClient::local_contains_many(
    std::span<const crypto::Prefix32> prefixes, std::span<bool> out) const {
  const std::size_t n = prefixes.size();
  std::fill(out.begin(), out.begin() + n, false);
  // OR each list's batch answer into `out`, 64 queries at a time (stack
  // scratch; batches above 64 are split, preserving order).
  bool tmp[64];
  for (const auto& list : lists_) {
    if (!list.db) continue;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t count = std::min<std::size_t>(64, n - base);
      list.db->contains_many32(prefixes.subspan(base, count),
                               std::span<bool>(tmp, count));
      for (std::size_t i = 0; i < count; ++i) {
        out[base + i] = out[base + i] || tmp[i];
      }
    }
  }
}

std::size_t PrefixProtocolClient::local_prefix_count() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_) {
    if (list.db) total += list.db->size();
  }
  return total;
}

std::size_t PrefixProtocolClient::local_store_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_) {
    if (list.db) total += list.db->memory_bytes();
  }
  return total;
}

ListDbPtr PrefixProtocolClient::list_db(std::string_view list_name) const {
  for (const auto& list : lists_) {
    if (list.name == list_name) return list.db;
  }
  return nullptr;
}

LookupResult PrefixProtocolClient::lookup(const LookupRequest& request) {
  ++metrics_.lookups;
  LookupResult result;

  if (!request.valid()) {
    result.verdict = Verdict::kInvalid;
    return result;
  }

  // One batched local-store probe across every decomposition prefix (the
  // request pre-computed digests and prefixes; see sb/lookup_request.hpp).
  const auto prefixes = request.prefixes();
  const auto digests = request.digests();
  const auto expressions = request.expressions();
  const std::size_t n = prefixes.size();
  bool inline_flags[64];
  std::unique_ptr<bool[]> heap_flags;
  bool* flags = inline_flags;
  if (n > 64) {
    heap_flags = std::make_unique<bool[]>(n);
    flags = heap_flags.get();
  }
  local_contains_many(prefixes, std::span<bool>(flags, n));

  struct Hit {
    crypto::Digest256 digest;
    crypto::Prefix32 prefix;
    const std::string* expression;
  };
  std::vector<Hit> hits;
  for (std::size_t i = 0; i < n; ++i) {
    if (!flags[i]) continue;
    // Multiple decompositions can share a prefix; keep each digest.
    hits.push_back({digests[i], prefixes[i], &expressions[i]});
    if (std::find(result.local_hits.begin(), result.local_hits.end(),
                  prefixes[i]) == result.local_hits.end()) {
      result.local_hits.push_back(prefixes[i]);
    }
  }

  if (hits.empty()) {
    result.verdict = Verdict::kSafe;  // a miss proves the URL is not listed
    return result;
  }
  ++metrics_.local_hits;

  // Resolve each hit prefix to (list, digest) entries: from cache when
  // fresh, otherwise batched into one server request.
  const std::uint64_t now = transport_.clock().now();
  std::map<crypto::Prefix32, std::vector<storage::FullHashEntry>> resolved;
  std::vector<crypto::Prefix32> to_fetch;
  for (const auto prefix : result.local_hits) {
    if (auto cached = cache_.get(prefix, now)) {
      resolved[prefix] = std::move(*cached);
    } else if (std::find(to_fetch.begin(), to_fetch.end(), prefix) ==
               to_fetch.end()) {
      to_fetch.push_back(prefix);
    }
  }

  if (to_fetch.empty()) {
    result.answered_from_cache = true;
    ++metrics_.cache_answers;
  } else if (!full_hash_backoff_.can_request(now)) {
    // Backoff forbids contacting the server: fail open, leave the prefixes
    // unresolved (they stay out of the cache and will be retried).
    ++metrics_.backoff_suppressed;
    result.unconfirmed = true;
    result.verdict = Verdict::kSafe;
    return result;
  } else {
    ++metrics_.full_hash_requests;
    if (to_fetch.size() >= 2) ++metrics_.multi_prefix_lookups;
    result.sent_prefixes = to_fetch;
    const auto response =
        transport_.get_full_hashes_or_error(to_fetch, config_.cookie);
    const std::uint64_t arrival = transport_.clock().now();
    if (!response) {
      ++metrics_.network_errors;
      full_hash_backoff_.on_error(arrival);
      result.sent_prefixes.clear();  // never reached the server
      result.unconfirmed = true;
      result.verdict = Verdict::kSafe;  // fail open
      return result;
    }
    full_hash_backoff_.on_success(arrival);
    for (const auto& [prefix, matches] : response->matches) {
      std::vector<storage::FullHashEntry> entries;
      entries.reserve(matches.size());
      for (const auto& match : matches) {
        entries.push_back({match.list_name, match.digest});
      }
      cache_.put(prefix, entries, arrival);
      resolved[prefix] = std::move(entries);
    }
  }

  // Verdict: some decomposition's full digest appears among the resolved
  // entries for its prefix. The matching entry carries the list tag, so
  // reporting needs nothing beyond what crossed the wire (entries are in
  // server response order: ascending list name).
  for (const Hit& hit : hits) {
    const auto it = resolved.find(hit.prefix);
    if (it == resolved.end()) continue;
    for (const auto& entry : it->second) {
      if (entry.digest != hit.digest) continue;
      result.verdict = Verdict::kMalicious;
      result.matched_expression = *hit.expression;
      result.matched_list = entry.list_name;
      ++metrics_.malicious_verdicts;
      return result;
    }
  }
  result.verdict = Verdict::kSafe;  // false positive eliminated
  return result;
}

std::unique_ptr<ProtocolClient> make_protocol_client(
    Transport& transport, ClientConfig config,
    std::shared_ptr<ListDbMemo> memo) {
  switch (config.protocol) {
    case ProtocolVersion::kV1Lookup:
      return std::make_unique<V1LookupProtocol>(transport, config);
    case ProtocolVersion::kV3Chunked:
      break;
    case ProtocolVersion::kV4Sliced:
      return std::make_unique<V4SlicedProtocol>(transport, config,
                                                std::move(memo));
  }
  return std::make_unique<Client>(transport, config, std::move(memo));
}

}  // namespace sbp::sb
