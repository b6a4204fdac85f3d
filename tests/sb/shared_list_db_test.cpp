// Shared, immutable client list databases (sb/list_db.hpp): clients in the
// same list state hold one ListDb; a client's later update, or its v4
// desync reset, moves only that client; different store settings never
// share; the memo keys bases by never-reused ids (no stale hit through a
// recycled address); and its size follows the live states, not the
// number of updates behind them. Also pins the engine's per-shard memos:
// same counters at any thread count, metrics on or off.
#include "sb/list_db.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crypto/digest.hpp"
#include "sb/client.hpp"
#include "sb/protocol_v4.hpp"
#include "sim/engine.hpp"
#include "storage/raw_hash_store.hpp"

namespace sbp::sb {
namespace {

constexpr const char* kList = "list";

crypto::Prefix32 prefix_of(const std::string& expression) {
  return crypto::prefix32_of(expression);
}

/// Delegates to an in-process transport; while `corrupt_checksums` is
/// set, every v4 slice it returns carries a wrong checksum (a desync).
class TamperingTransport final : public Transport {
 public:
  TamperingTransport(Server& server, SimClock& clock)
      : Transport(clock), inner_(server, clock, /*round_trip_ticks=*/0) {}

  bool corrupt_checksums = false;

  std::optional<FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) override {
    return inner_.get_full_hashes_or_error(prefixes, cookie);
  }
  std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) override {
    return inner_.fetch_update_or_error(request);
  }
  std::optional<V4UpdateResponse> fetch_v4_update_or_error(
      const V4UpdateRequest& request) override {
    auto response = inner_.fetch_v4_update_or_error(request);
    if (response && corrupt_checksums) {
      for (auto& slice : response->lists) slice.checksum ^= 1;
    }
    return response;
  }
  std::optional<bool> lookup_v1_or_error(std::string_view url,
                                         Cookie cookie) override {
    return inner_.lookup_v1_or_error(url, cookie);
  }

 private:
  InProcessTransport inner_;
};

class SharedListDbTest : public ::testing::Test {
 protected:
  SharedListDbTest() : transport_(server_, clock_, /*round_trip_ticks=*/0) {}

  std::unique_ptr<PrefixProtocolClient> make_client(
      ProtocolVersion protocol, Cookie cookie,
      storage::StoreKind kind = storage::StoreKind::kDeltaCoded,
      std::size_t bloom_bits = 0, Transport* transport = nullptr) {
    ClientConfig config;
    config.protocol = protocol;
    config.cookie = cookie;
    config.store_kind = kind;
    config.bloom_bits = bloom_bits;
    Transport& via = transport ? *transport : transport_;
    std::unique_ptr<PrefixProtocolClient> client;
    if (protocol == ProtocolVersion::kV4Sliced) {
      client = std::make_unique<V4SlicedProtocol>(via, config, memo_);
    } else {
      client = std::make_unique<Client>(via, config, memo_);
    }
    client->subscribe(kList);
    return client;
  }

  void add_and_seal(std::initializer_list<std::string> expressions) {
    for (const auto& e : expressions) server_.add_expression(kList, e);
    server_.seal_chunk(kList);
  }

  Server server_;
  SimClock clock_;
  InProcessTransport transport_;
  std::shared_ptr<ListDbMemo> memo_ = std::make_shared<ListDbMemo>();
};

TEST_F(SharedListDbTest, ClientsSyncedFromTheSameStateShareOneObject) {
  add_and_seal({"a.example/", "b.example/", "c.example/"});
  for (const auto protocol :
       {ProtocolVersion::kV3Chunked, ProtocolVersion::kV4Sliced}) {
    const auto first = make_client(protocol, 1);
    const auto second = make_client(protocol, 2);
    EXPECT_EQ(first->list_db(kList), nullptr);  // subscribed, empty
    const std::uint64_t misses = memo_->misses();
    const std::uint64_t hits = memo_->hits();
    ASSERT_TRUE(first->update());
    ASSERT_TRUE(second->update());

    ASSERT_NE(first->list_db(kList), nullptr);
    EXPECT_EQ(first->list_db(kList).get(), second->list_db(kList).get());
    EXPECT_EQ(memo_->misses(), misses + 1);
    EXPECT_EQ(memo_->hits(), hits + 1);
    EXPECT_EQ(first->local_prefix_count(), 3u);
    EXPECT_TRUE(second->local_contains(prefix_of("b.example/")));
    EXPECT_FALSE(second->local_contains(prefix_of("z.example/")));
  }
  // Each state died with the last client holding it.
  EXPECT_EQ(memo_->live_states(), 0u);
}

TEST_F(SharedListDbTest, StandaloneClientsBuildTheirOwnStates) {
  add_and_seal({"a.example/"});
  ClientConfig config;
  Client first(transport_, config);
  Client second(transport_, config);
  first.subscribe(kList);
  second.subscribe(kList);
  ASSERT_TRUE(first.update());
  ASSERT_TRUE(second.update());
  EXPECT_NE(first.list_db(kList).get(), second.list_db(kList).get());
  EXPECT_EQ(first.local_prefix_count(), second.local_prefix_count());
}

TEST_F(SharedListDbTest, LaterUpdateOfOneClientLeavesTheOtherUntouched) {
  add_and_seal({"a.example/", "b.example/"});
  const auto v3_mover = make_client(ProtocolVersion::kV3Chunked, 1);
  const auto v3_stayer = make_client(ProtocolVersion::kV3Chunked, 2);
  const auto v4_mover = make_client(ProtocolVersion::kV4Sliced, 3);
  auto v4_stayer_owned = make_client(ProtocolVersion::kV4Sliced, 4);
  auto& v4_stayer = static_cast<V4SlicedProtocol&>(*v4_stayer_owned);
  for (auto* client : {v3_mover.get(), v3_stayer.get(), v4_mover.get(),
                       v4_stayer_owned.get()}) {
    ASSERT_TRUE(client->update());
  }
  const ListDbPtr v3_before = v3_stayer->list_db(kList);
  const ListDbPtr v4_before = v4_stayer.list_db(kList);
  const std::uint32_t checksum_before = v4_stayer.list_checksum(kList);
  const std::uint64_t state_before = v4_stayer.list_state(kList);

  server_.remove_expressions(kList, {"a.example/"});
  add_and_seal({"c.example/"});
  ASSERT_TRUE(v3_mover->update());
  ASSERT_TRUE(v4_mover->update());
  for (const auto* mover : {v3_mover.get(), v4_mover.get()}) {
    EXPECT_FALSE(mover->local_contains(prefix_of("a.example/")));
    EXPECT_TRUE(mover->local_contains(prefix_of("c.example/")));
  }

  // The stayers still hold, and answer from, the state they synced.
  for (const auto* stayer : {v3_stayer.get(), v4_stayer_owned.get()}) {
    EXPECT_TRUE(stayer->local_contains(prefix_of("a.example/")));
    EXPECT_TRUE(stayer->local_contains(prefix_of("b.example/")));
    EXPECT_FALSE(stayer->local_contains(prefix_of("c.example/")));
    EXPECT_EQ(stayer->local_prefix_count(), 2u);
  }
  EXPECT_EQ(v3_stayer->list_db(kList), v3_before);
  EXPECT_EQ(v4_stayer.list_db(kList), v4_before);
  EXPECT_EQ(v4_stayer.list_checksum(kList), checksum_before);
  EXPECT_EQ(v4_stayer.list_state(kList), state_before);

  // Catching up joins the mover's state.
  ASSERT_TRUE(v3_stayer->update());
  ASSERT_TRUE(v4_stayer.update());
  EXPECT_EQ(v3_stayer->list_db(kList), v3_mover->list_db(kList));
  EXPECT_EQ(v4_stayer.list_db(kList), v4_mover->list_db(kList));
}

TEST_F(SharedListDbTest, V4DesyncResetOfOneClientDoesNotClearTheOther) {
  add_and_seal({"a.example/", "b.example/"});
  TamperingTransport tampering(server_, clock_);
  auto victim_owned = make_client(ProtocolVersion::kV4Sliced, 1,
                                  storage::StoreKind::kDeltaCoded, 0,
                                  &tampering);
  auto other_owned = make_client(ProtocolVersion::kV4Sliced, 2);
  auto& victim = static_cast<V4SlicedProtocol&>(*victim_owned);
  auto& other = static_cast<V4SlicedProtocol&>(*other_owned);
  ASSERT_TRUE(victim.update());
  ASSERT_TRUE(other.update());
  ASSERT_EQ(victim.list_db(kList), other.list_db(kList));
  const ListDbPtr shared = other.list_db(kList);
  const std::uint32_t checksum = other.list_checksum(kList);

  add_and_seal({"c.example/"});
  tampering.corrupt_checksums = true;
  EXPECT_FALSE(victim.update());  // desync: reset to the empty state
  EXPECT_EQ(victim.list_db(kList), nullptr);
  EXPECT_EQ(victim.list_state(kList), 0u);
  EXPECT_EQ(victim.local_prefix_count(), 0u);
  EXPECT_EQ(victim.metrics().updates_failed, 1u);

  EXPECT_EQ(other.list_db(kList), shared);
  EXPECT_EQ(other.list_checksum(kList), checksum);
  EXPECT_EQ(other.local_prefix_count(), 2u);
  EXPECT_TRUE(other.local_contains(prefix_of("a.example/")));
  EXPECT_EQ(shared->raw.size(), 2u);

  // The victim full-syncs back to the server's set.
  tampering.corrupt_checksums = false;
  ASSERT_TRUE(victim.update());
  ASSERT_TRUE(other.update());
  EXPECT_EQ(victim.list_checksum(kList), other.list_checksum(kList));
  EXPECT_EQ(victim.local_prefix_count(), 3u);
}

TEST_F(SharedListDbTest, DifferentStoreSettingsNeverShare) {
  add_and_seal({"a.example/", "b.example/", "c.example/"});
  using storage::StoreKind;
  const auto delta = make_client(ProtocolVersion::kV3Chunked, 1,
                                 StoreKind::kDeltaCoded);
  const auto raw = make_client(ProtocolVersion::kV3Chunked, 2,
                               StoreKind::kRawSorted);
  const auto bloom_small = make_client(ProtocolVersion::kV3Chunked, 3,
                                       StoreKind::kBloom, 4096);
  const auto bloom_large = make_client(ProtocolVersion::kV3Chunked, 4,
                                       StoreKind::kBloom, 8192);
  const auto delta_again = make_client(ProtocolVersion::kV3Chunked, 5,
                                       StoreKind::kDeltaCoded);
  for (auto* client : {delta.get(), raw.get(), bloom_small.get(),
                       bloom_large.get(), delta_again.get()}) {
    ASSERT_TRUE(client->update());
  }
  const std::set<const ListDb*> distinct{
      delta->list_db(kList).get(), raw->list_db(kList).get(),
      bloom_small->list_db(kList).get(), bloom_large->list_db(kList).get()};
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(delta_again->list_db(kList), delta->list_db(kList));
  EXPECT_EQ(memo_->misses(), 4u);
  EXPECT_EQ(memo_->hits(), 1u);
  EXPECT_EQ(memo_->live_states(), 4u);
  EXPECT_GT(bloom_large->local_store_bytes(), bloom_small->local_store_bytes());
}

TEST(ListDbMemoTest, RecycledBaseAddressNeverProducesAStaleHit) {
  ListDbMemo memo;
  const auto full_slice = [](std::uint64_t state,
                             std::vector<crypto::Prefix32> set) {
    V4SliceUpdate slice;
    slice.list_name = kList;
    slice.full_reset = true;
    slice.new_state = state;
    slice.checksum = storage::RawHashStore::checksum_of(set);
    slice.additions = std::move(set);
    return slice;
  };
  ListDbPtr base = memo.apply_slice(nullptr, full_slice(1, {1, 2, 3}));
  ASSERT_NE(base, nullptr);
  V4SliceUpdate step;
  step.list_name = kList;
  step.new_state = 2;
  step.removal_indices = {0};
  step.additions = {4};
  step.checksum = storage::RawHashStore::checksum_of(
      std::vector<crypto::Prefix32>{2, 3, 4});
  const ListDbPtr next = memo.apply_slice(base, step);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->raw.prefixes(), (std::vector<crypto::Prefix32>{2, 3, 4}));

  // Free the base while its successor (and so the memo entry keyed by
  // the base) stays alive, then build other states of the same shape. An
  // allocator that recycles the freed block hands its address to the
  // first of them; whether or not it does, the same step from any of them
  // must be applied afresh -- here it fails its checksum -- and never
  // answered with the successor of the freed base.
  const ListDb* freed_address = base.get();
  const std::uint64_t freed_id = base->id;
  base.reset();
  std::vector<ListDbPtr> others;
  bool address_recycled = false;
  for (std::uint32_t i = 0; i < 16; ++i) {
    others.push_back(
        memo.apply_slice(nullptr, full_slice(10 + i, {10 + i, 20 + i,
                                                      30 + i})));
    ASSERT_NE(others.back(), nullptr);
    EXPECT_NE(others.back()->id, freed_id);
    address_recycled |= others.back().get() == freed_address;
    EXPECT_EQ(memo.apply_slice(others.back(), step), nullptr);
  }
  // Informational: glibc recycles at once; sanitizer allocators do not.
  RecordProperty("address_recycled", address_recycled ? 1 : 0);
  EXPECT_EQ(memo.live_states(), 1u + others.size());
}

TEST_F(SharedListDbTest, MemoSizeFollowsLiveStatesUnderChurn) {
  for (int i = 0; i < 20; ++i) {
    server_.add_expression(kList, "seed" + std::to_string(i) + ".example/");
  }
  server_.seal_chunk(kList);
  std::vector<std::unique_ptr<PrefixProtocolClient>> clients;
  for (Cookie c = 1; c <= 8; ++c) {
    clients.push_back(make_client(c % 2 == 0 ? ProtocolVersion::kV4Sliced
                                             : ProtocolVersion::kV3Chunked,
                                  c));
    ASSERT_TRUE(clients.back()->update());
  }
  for (int epoch = 1; epoch <= 50; ++epoch) {
    server_.remove_expressions(
        kList, {"seed" + std::to_string(epoch % 20) + ".example/"});
    add_and_seal({"epoch" + std::to_string(epoch) + ".example/"});
    // Staggered re-syncs keep several states alive at once.
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (epoch % (1 + i % 3) == 0) {
        ASSERT_TRUE(clients[i]->update());
      }
    }
    std::set<const ListDb*> held;
    for (const auto& client : clients) {
      held.insert(client->list_db(kList).get());
    }
    held.erase(nullptr);
    EXPECT_EQ(memo_->live_states(), held.size()) << "epoch " << epoch;
    EXPECT_LE(memo_->live_states(), clients.size()) << "epoch " << epoch;
  }
  EXPECT_GT(memo_->misses(), 50u);  // many states were built and freed
  clients.clear();
  EXPECT_EQ(memo_->live_states(), 0u);
}

}  // namespace
}  // namespace sbp::sb

namespace sbp::sim {
namespace {

SimConfig mixed_churn_config() {
  SimConfig config;
  config.num_users = 160;
  config.ticks = 30;
  config.num_shards = 8;
  config.seed = 15;
  config.corpus.num_hosts = 400;
  config.corpus.seed = 15;
  config.corpus.max_pages = 100;
  config.blacklist.page_fraction = 0.05;
  config.blacklist.site_fraction = 0.01;
  config.churn.epoch_ticks = 5;
  config.churn.add_rate = 0.08;
  config.churn.remove_rate = 0.04;
  config.protocol = sb::ProtocolVersion::kV3Chunked;
  config.mix_protocol = sb::ProtocolVersion::kV4Sliced;
  config.mix_fraction = 0.5;
  return config;
}

struct MemoCounters {
  std::uint64_t live = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  friend bool operator==(const MemoCounters&, const MemoCounters&) = default;
};

MemoCounters run_counters(std::size_t threads, bool metrics) {
  SimConfig config = mixed_churn_config();
  config.num_threads = threads;
  config.collect_metrics = metrics;
  Engine engine(std::move(config));
  engine.run();
  const obs::Snapshot snapshot = engine.obs_snapshot();
  const auto* live = snapshot.counters.find("list_db_live_states");
  const auto* hits = snapshot.counters.find("list_db_memo_hits");
  const auto* misses = snapshot.counters.find("list_db_memo_misses");
  EXPECT_NE(live, nullptr);
  EXPECT_NE(hits, nullptr);
  EXPECT_NE(misses, nullptr);
  if (!live || !hits || !misses) return {};
  return {static_cast<std::uint64_t>(live->gauge.value), hits->counter.value,
          misses->counter.value};
}

TEST(EngineListDbTest, ShardClientsInTheSameStateShareOneDatabase) {
  SimConfig config = mixed_churn_config();
  config.churn.epoch_ticks = 0;  // frozen lists: everyone at one state
  config.mix_fraction = 0.0;
  Engine engine(std::move(config));
  const std::size_t shards = engine.config().num_shards;
  const auto& first =
      dynamic_cast<const sb::PrefixProtocolClient&>(engine.user_client(0));
  const auto& same_shard =
      dynamic_cast<const sb::PrefixProtocolClient&>(
          engine.user_client(shards));
  const auto& other_shard =
      dynamic_cast<const sb::PrefixProtocolClient&>(engine.user_client(1));
  const std::string list = engine.config().blacklist.lists.front();
  ASSERT_NE(first.list_db(list), nullptr);
  EXPECT_EQ(first.list_db(list), same_shard.list_db(list));
  // One memo per shard: the same content, built once per shard.
  EXPECT_NE(first.list_db(list), other_shard.list_db(list));
  EXPECT_EQ(first.local_prefix_count(), other_shard.local_prefix_count());
  const MemoCounters counters = [&] {
    const obs::Snapshot snapshot = engine.obs_snapshot();
    return MemoCounters{
        static_cast<std::uint64_t>(
            snapshot.counters.find("list_db_live_states")->gauge.value),
        snapshot.counters.find("list_db_memo_hits")->counter.value,
        snapshot.counters.find("list_db_memo_misses")->counter.value};
  }();
  const std::uint64_t lists = engine.config().blacklist.lists.size();
  EXPECT_EQ(counters.live, shards * lists);
  EXPECT_EQ(counters.misses, shards * lists);
  EXPECT_EQ(counters.hits, (engine.num_users() - shards) * lists);
}

TEST(EngineListDbTest, MemoCountersDoNotDependOnThreadsOrMetrics) {
  const MemoCounters baseline = run_counters(1, /*metrics=*/false);
  EXPECT_GT(baseline.hits, 0u);
  EXPECT_GT(baseline.misses, 0u);
  EXPECT_GT(baseline.live, 0u);
  for (const std::size_t threads : {1, 2, 8}) {
    for (const bool metrics : {false, true}) {
      EXPECT_EQ(run_counters(threads, metrics), baseline)
          << threads << " threads, metrics " << metrics;
    }
  }
}

}  // namespace
}  // namespace sbp::sim
