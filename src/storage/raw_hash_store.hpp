// Client-side raw-hash store for the v4 sliced-update protocol.
//
// Where v3 clients reassemble their database from numbered chunks, a v4
// list state is ONE sorted array of 32-bit hash prefixes, moved on by
// server "slices": removals as indices into the current sorted array,
// additions as new values (Rice-compressed on the wire). After each
// application the client verifies a checksum of the whole set and, on
// mismatch, throws its state away and full-syncs -- exactly the Update
// API's recovery discipline. (Clients in the same state share one store;
// see sb/list_db.hpp.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/digest.hpp"

namespace sbp::storage {

class RawHashStore {
 public:
  /// Replaces the whole set. `sorted` must be strictly increasing;
  /// returns false (store cleared) otherwise.
  [[nodiscard]] bool reset(std::vector<crypto::Prefix32> sorted);

  /// Applies one slice: drops the entries at `removal_indices` (strictly
  /// increasing, in range), then merges `additions` (strictly increasing,
  /// none already present). Returns false -- store unchanged -- on any
  /// violation.
  [[nodiscard]] bool apply_slice(
      const std::vector<std::uint32_t>& removal_indices,
      const std::vector<crypto::Prefix32>& additions);

  [[nodiscard]] bool contains(crypto::Prefix32 prefix) const noexcept;

  /// Batch membership: out[i] = contains(prefixes[i]); bit-identical to
  /// the scalar test, amortizing the binary searches across a sorted
  /// probe order (see storage::PrefixStore::contains_many). Batches may
  /// be empty, unsorted and contain duplicates.
  void contains_many32(std::span<const crypto::Prefix32> prefixes,
                       std::span<bool> out) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sorted_.size() * sizeof(crypto::Prefix32);
  }
  [[nodiscard]] const std::vector<crypto::Prefix32>& prefixes()
      const noexcept {
    return sorted_;
  }

  [[nodiscard]] std::uint32_t checksum() const noexcept {
    return checksum_of(sorted_);
  }

  /// FNV-1a (32-bit) over the big-endian bytes of a sorted prefix set --
  /// the stand-in for v4's sha256 state checksum, computed identically by
  /// server and client.
  [[nodiscard]] static std::uint32_t checksum_of(
      std::span<const crypto::Prefix32> sorted) noexcept;

 private:
  std::vector<crypto::Prefix32> sorted_;
};

}  // namespace sbp::storage
