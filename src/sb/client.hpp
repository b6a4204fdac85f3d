// The Safe Browsing v3 client (paper Figure 3's flow chart).
//
// A lookup canonicalizes the URL, computes its decompositions, hashes each
// to a 32-bit prefix and tests them against the local per-list stores. On
// zero hits the URL is safe and *nothing* leaves the machine. On >= 1 hit
// the client asks the server for the full digests of the hit prefixes
// (subject to the full-hash cache), attaching its SB cookie -- this is the
// privacy-critical transmission the paper analyzes. The verdict is
// malicious only if a returned full digest equals the full digest of one of
// the URL's decompositions. (The flow and the local database live in
// sb::PrefixProtocolClient -- v4 shares them; this class contributes the
// v3 update: it advertises each list's applied chunk numbers, and the
// chunks the server sends move the list to its next shared state, whose
// shavar chunks and rebuilt prefix store the memo builds once for every
// client making the same move -- see sb/list_db.hpp.)
//
// The local store backend is configurable (raw / delta-coded / Bloom,
// Section 2.2.2); with Bloom, local hits can be intrinsic false positives,
// which turn into extra full-hash traffic but never wrong verdicts.
#pragma once

#include <memory>

#include "sb/protocol.hpp"

namespace sbp::sb {

class Client : public PrefixProtocolClient {
 public:
  Client(Transport& transport, ClientConfig config,
         std::shared_ptr<ListDbMemo> memo = nullptr)
      : PrefixProtocolClient(transport, config, std::move(memo)) {}

  [[nodiscard]] ProtocolVersion version() const noexcept override {
    return ProtocolVersion::kV3Chunked;
  }

  /// Syncs all subscribed lists via the chunked update protocol. Clears
  /// the full-hash cache (paper Section 2.2.1: cached digests are kept
  /// "until an update discards them"). Returns false when the update was
  /// withheld by backoff or failed at the network level (backoff state
  /// advances accordingly).
  bool update() override;
};

/// The v3 generation under its protocol-family name.
using V3ChunkedProtocol = Client;

}  // namespace sbp::sb
