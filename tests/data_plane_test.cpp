// Data-plane fast-path tests: the compiled route plan held
// bit-identical to the live pipeline and the seed-faithful walk on
// random topologies (also across a whole-plan recompile and for an
// out-of-range ingress), plan invalidation on every mutation route,
// the indexed FlowTable, ItemStore, EventQueue ordering, and
// thread-count invariance of the parallel retrieval replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/delay_experiment.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "sden/event_queue.hpp"
#include "sden/flow_table.hpp"
#include "sden/item_store.hpp"
#include "sden/network.hpp"
#include "sden/reference_router.hpp"
#include "sden/seed_router.hpp"
#include "topology/waxman.hpp"

namespace gred {
namespace {

topology::EdgeNetwork make_net(std::size_t switches, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  topology::EdgeNetwork net(std::move(topo).value().graph);
  for (std::size_t s = 0; s < switches; ++s) {
    // 1-4 servers per switch so H(d) mod s exercises several ranges.
    const std::size_t count = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(net.attach_server(s).ok());
    }
  }
  return net;
}

sden::Packet make_packet(const std::string& id, sden::PacketType type,
                         const std::string& payload = "") {
  sden::Packet p;
  p.type = type;
  p.data_id = id;
  p.payload = payload;
  const crypto::DataKey key(id);
  p.target = {key.position().x, key.position().y};
  p.set_key(key);
  return p;
}

void expect_identical(const sden::RouteResult& a, const sden::RouteResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.status.ok(), b.status.ok()) << what;
  if (!a.status.ok() && !b.status.ok()) {
    // FAILED routes must stay bit-identical too: same classified code,
    // same message (both sides build them via route_errors).
    EXPECT_EQ(a.status.error().code, b.status.error().code) << what;
    EXPECT_EQ(a.status.error().message, b.status.error().message) << what;
  }
  EXPECT_EQ(a.switch_path, b.switch_path) << what;
  EXPECT_EQ(a.delivered_to, b.delivered_to) << what;
  EXPECT_EQ(a.responder, b.responder) << what;
  EXPECT_EQ(a.payload, b.payload) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_DOUBLE_EQ(a.path_cost, b.path_cost) << what;
}

// The compiled fast path must produce the exact RouteResult of the
// live Switch::process walk and of the seed-faithful walk for every
// packet type, on several random Waxman substrates.
TEST(DataPlaneDifferential, FastPathMatchesLivePipeline) {
  for (const std::size_t n : {24u, 64u}) {
    for (const std::uint64_t seed : {501u, 502u}) {
      auto sys = core::GredSystem::create(
          make_net(n, seed), core::VirtualSpaceOptions{});
      ASSERT_TRUE(sys.ok());
      sden::SdenNetwork& net = sys.value().network();
      Rng rng(seed * 7);

      sden::RouteResult fast;
      sden::Packet scratch;
      for (std::size_t i = 0; i < 60; ++i) {
        const std::string id =
            "diff-" + std::to_string(seed) + "-" + std::to_string(i);
        const sden::SwitchId ingress = rng.next_below(n);

        // Placement: fast path first (stores), then the reference and
        // the seed-faithful walk overwrite the same id — identical path
        // and delivery.
        scratch = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
        net.route(scratch, ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        const sden::RouteResult ref_place = sden::reference_route(
            net, make_packet(id, sden::PacketType::kPlacement, "v-" + id),
            ingress);
        expect_identical(fast, ref_place, "placement " + id);
        const sden::RouteResult seed_place = sden::seed_faithful_route(
            net, make_packet(id, sden::PacketType::kPlacement, "v-" + id),
            ingress);
        expect_identical(fast, seed_place, "seed placement " + id);

        // Retrieval from a different random ingress.
        const sden::SwitchId r_ingress = rng.next_below(n);
        scratch = make_packet(id, sden::PacketType::kRetrieval);
        net.route(scratch, r_ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        EXPECT_TRUE(fast.found) << id;
        EXPECT_EQ(fast.payload, "v-" + id);
        const sden::RouteResult ref_get = sden::reference_route(
            net, make_packet(id, sden::PacketType::kRetrieval), r_ingress);
        expect_identical(fast, ref_get, "retrieval " + id);
        const sden::RouteResult seed_get = sden::seed_faithful_route(
            net, make_packet(id, sden::PacketType::kRetrieval), r_ingress);
        expect_identical(fast, seed_get, "seed retrieval " + id);

        // Removal via the fast path; the reference then misses.
        scratch = make_packet(id, sden::PacketType::kRemoval);
        net.route(scratch, r_ingress, fast);
        ASSERT_TRUE(fast.status.ok());
        EXPECT_TRUE(fast.found) << id;
        const sden::RouteResult ref_gone = sden::reference_route(
            net, make_packet(id, sden::PacketType::kRetrieval), r_ingress);
        EXPECT_FALSE(ref_gone.found) << id;
      }
    }
  }
}

// Four-way retrieval differential: the compiled fast path on the
// cached plan, the fast path again on a whole plan recompiled after
// invalidate_plan(), the live pipeline and the seed-faithful walk
// must agree bit for bit on every packet, on several random Waxman
// substrates. The suite keeps the name it had when a sharded runtime
// was a fifth arm.
TEST(ShardDifferential, FourWayBitIdentical) {
  for (const std::size_t n : {24u, 64u}) {
    for (const std::uint64_t seed : {901u, 902u}) {
      auto sys = core::GredSystem::create(make_net(n, seed),
                                          core::VirtualSpaceOptions{});
      ASSERT_TRUE(sys.ok());
      sden::SdenNetwork& net = sys.value().network();

      // Place 40 ids through the fast path, then retrieve each from a
      // fresh random ingress.
      Rng rng(seed * 13);
      std::vector<sden::Packet> pkts;
      std::vector<sden::SwitchId> ingresses;
      sden::RouteResult cached;
      sden::Packet scratch;
      for (std::size_t i = 0; i < 40; ++i) {
        const std::string id =
            "sh-" + std::to_string(seed) + "-" + std::to_string(i);
        scratch = make_packet(id, sden::PacketType::kPlacement, "v-" + id);
        net.route(scratch, rng.next_below(n), cached);
        ASSERT_TRUE(cached.status.ok()) << id;
        pkts.push_back(make_packet(id, sden::PacketType::kRetrieval));
        ingresses.push_back(rng.next_below(n));
      }

      std::vector<sden::RouteResult> first(pkts.size());
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        scratch = pkts[i];
        net.route(scratch, ingresses[i], first[i]);
      }
      net.invalidate_plan();
      ASSERT_TRUE(net.route_plan_stale());

      sden::RouteResult recompiled;
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        const std::string what =
            "pkt " + std::to_string(i) + " n=" + std::to_string(n);
        EXPECT_TRUE(first[i].found) << what;
        scratch = pkts[i];
        net.route(scratch, ingresses[i], recompiled);
        expect_identical(first[i], recompiled, "recompiled " + what);
        const sden::RouteResult live =
            sden::reference_route(net, pkts[i], ingresses[i]);
        expect_identical(first[i], live, "live " + what);
        const sden::RouteResult seeded =
            sden::seed_faithful_route(net, pkts[i], ingresses[i]);
        expect_identical(first[i], seeded, "seed " + what);
      }
      EXPECT_FALSE(net.route_plan_stale());
    }
  }
}

// An ingress past the last switch fails the same way on the fast
// path, the live pipeline and the seed-faithful walk.
TEST(ShardDifferential, OutOfRangeIngressMatchesRoute) {
  auto sys = core::GredSystem::create(make_net(16, 910),
                                      core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();
  const sden::Packet pkt = make_packet("oor", sden::PacketType::kRetrieval);
  const sden::SwitchId ingress = 9999;

  sden::RouteResult fast;
  sden::Packet scratch = pkt;
  net.route(scratch, ingress, fast);
  ASSERT_FALSE(fast.status.ok());
  EXPECT_EQ(fast.status.error().code, ErrorCode::kOutOfRange);
  expect_identical(fast, sden::reference_route(net, pkt, ingress),
                   "live out-of-range ingress");
  expect_identical(fast, sden::seed_faithful_route(net, pkt, ingress),
                   "seed out-of-range ingress");
}

// Mutating a switch through any accessor must invalidate the compiled
// plan: the next route sees the new forwarding state.
TEST(DataPlaneDifferential, PlanRebuildsAfterMutation) {
  auto sys =
      core::GredSystem::create(make_net(24, 77), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  const std::string id = "plan-rebuild";
  ASSERT_TRUE(sys.value().place(id, "payload", 0).ok());
  sden::RouteResult result;
  sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, 0, result);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.found);
  ASSERT_GE(result.switch_path.size(), 1u);
  const sden::SwitchId terminal = result.switch_path.back();

  // Wipe the terminal switch's state: the same packet must now be
  // dropped there instead of delivered (the plan was recompiled).
  net.switch_at(terminal).reset();
  pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, terminal, result);
  EXPECT_FALSE(result.status.ok());
  EXPECT_FALSE(result.found);
}

// FAILED routes must match the live pipeline bit for bit: classified
// error code, message, partial switch_path, path_cost — and the
// failure-path contract (found == false, delivered_to empty) holds.
TEST(DataPlaneDifferential, FailedRoutesMatchLivePipeline) {
  auto sys =
      core::GredSystem::create(make_net(32, 611), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();

  // Find an item whose route covers at least 3 switches so we can
  // break state mid-path.
  std::string id;
  sden::RouteResult healthy;
  for (std::size_t i = 0; i < 200 && healthy.switch_path.size() < 3; ++i) {
    id = "fail-" + std::to_string(i);
    ASSERT_TRUE(sys.value().place(id, "v", i % 32).ok());
    sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
    net.route(pkt, (i * 7) % 32, healthy);
    ASSERT_TRUE(healthy.status.ok());
  }
  ASSERT_GE(healthy.switch_path.size(), 3u);
  const sden::SwitchId ingress = healthy.switch_path.front();
  const sden::SwitchId terminal = healthy.switch_path.back();

  const auto run_both = [&](const std::string& what) {
    sden::RouteResult fast;
    sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
    net.route(pkt, ingress, fast);
    const sden::RouteResult ref = sden::reference_route(
        net, make_packet(id, sden::PacketType::kRetrieval), ingress);
    expect_identical(fast, ref, what);
    EXPECT_FALSE(fast.status.ok()) << what;
    EXPECT_FALSE(fast.found) << what;
    EXPECT_TRUE(fast.delivered_to.empty()) << what;
    EXPECT_EQ(fast.responder, topology::kNoServer) << what;
    EXPECT_TRUE(fast.payload.empty()) << what;
    return fast;
  };

  // Crashed terminal switch: the packet black-holes on the approach
  // hop, keeping the partial path up to the drop.
  sden::FaultState faults;
  faults.seed = 99;
  faults.set_switch_down(terminal, true);
  net.set_fault_state(&faults);
  {
    const sden::RouteResult r = run_both("terminal switch down");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_LT(r.switch_path.size(), healthy.switch_path.size());
    EXPECT_FALSE(r.switch_path.empty());
  }

  // Crashed ingress: the packet never enters; the path stays empty.
  faults.set_switch_down(terminal, false);
  faults.set_switch_down(ingress, true);
  {
    const sden::RouteResult r = run_both("ingress switch down");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_TRUE(r.switch_path.empty());
  }

  // Hard-down link on the first healthy hop.
  faults.set_switch_down(ingress, false);
  faults.set_link_drop(healthy.switch_path[0], healthy.switch_path[1], 1.0);
  {
    const sden::RouteResult r = run_both("hard-down link");
    EXPECT_EQ(r.status.error().code, ErrorCode::kLinkDown);
    EXPECT_EQ(r.switch_path.size(), 1u);
  }

  // Flaky links everywhere: both routers must agree packet by packet
  // on the deterministic drop decision (same hash inputs both sides).
  faults.clear_link(healthy.switch_path[0], healthy.switch_path[1]);
  for (const auto& [u, v] : net.description().switches().edges()) {
    faults.set_link_drop(u, v, 0.35);
  }
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::string flaky_id = "flaky-" + std::to_string(i);
    ASSERT_TRUE(net.fault_state() != nullptr);
    sden::RouteResult fast;
    sden::Packet pkt = make_packet(flaky_id, sden::PacketType::kRetrieval);
    net.route(pkt, ingress, fast);
    const sden::RouteResult ref = sden::reference_route(
        net, make_packet(flaky_id, sden::PacketType::kRetrieval), ingress);
    expect_identical(fast, ref, flaky_id);
    if (!fast.status.ok()) ++dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 40u);
  net.set_fault_state(nullptr);

  // With faults cleared, the original route works again.
  sden::RouteResult after;
  sden::Packet pkt = make_packet(id, sden::PacketType::kRetrieval);
  net.route(pkt, ingress, after);
  EXPECT_TRUE(after.status.ok());
  EXPECT_TRUE(after.found);

  // Table-miss classification: a reset switch mid-path turns into a
  // non-DT transit node; both routers report kNoRoute identically.
  net.switch_at(terminal).reset();
  {
    const sden::RouteResult r = run_both("reset terminal switch");
    EXPECT_EQ(r.status.error().code, ErrorCode::kNoRoute);
    EXPECT_EQ(r.switch_path, healthy.switch_path);
  }
}

// A read-only inspection pass (reference router, metrics, validators)
// must leave a freshly built plan intact: only mutating accessors may
// invalidate it.
TEST(DataPlaneDifferential, PlanSurvivesReadOnlyInspection) {
  auto sys =
      core::GredSystem::create(make_net(24, 303), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  sden::SdenNetwork& net = sys.value().network();
  ASSERT_TRUE(sys.value().place("inspect", "v", 0).ok());

  // First route builds the plan.
  sden::RouteResult r;
  sden::Packet pkt = make_packet("inspect", sden::PacketType::kRetrieval);
  net.route(pkt, 0, r);
  ASSERT_TRUE(r.status.ok());
  ASSERT_FALSE(net.route_plan_stale());

  // Reference-route the same packet (walks const_switch_at every hop)
  // and sweep every switch read-only: the plan must stay fresh.
  (void)sden::reference_route(
      net, make_packet("inspect", sden::PacketType::kRetrieval), 0);
  std::size_t dt = 0;
  for (sden::SwitchId s = 0; s < net.switch_count(); ++s) {
    if (net.const_switch_at(s).dt_participant()) ++dt;
  }
  EXPECT_GT(dt, 0u);
  EXPECT_FALSE(net.route_plan_stale());

  // The mutable accessor conservatively invalidates.
  (void)net.switch_at(0);
  EXPECT_TRUE(net.route_plan_stale());
}

TEST(FlowTableIndex, RelayFirstInstalledWinsAndDedup) {
  sden::FlowTable table;
  table.add_relay({1, 2, 3, 9});   // first entry for dest 9
  table.add_relay({4, 5, 6, 9});   // different sour, same dest
  ASSERT_EQ(table.relays().size(), 2u);

  const sden::RelayEntry* hit = table.find_relay(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sour, 1u);
  EXPECT_EQ(hit->succ, 3u);

  // Re-adding the same <sour, dest> updates in place — no growth, and
  // the dest match still resolves to the first-installed entry.
  table.add_relay({1, 2, 7, 9});
  EXPECT_EQ(table.relays().size(), 2u);
  hit = table.find_relay(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->succ, 7u);

  EXPECT_EQ(table.find_relay(8), nullptr);
}

TEST(FlowTableIndex, RelayLookupScalesWithoutDuplicates) {
  // O(1) add_relay regression: installing the same relay set twice
  // (controller re-installation) must not duplicate entries, and every
  // dest must keep resolving to its first entry.
  sden::FlowTable table;
  const std::size_t n = 2000;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      table.add_relay({i, i, i + 1, 10000 + i});
    }
  }
  ASSERT_EQ(table.relays().size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const sden::RelayEntry* hit = table.find_relay(10000 + i);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->sour, i);
  }
}

TEST(FlowTableIndex, RewriteRemoveReindexes) {
  sden::FlowTable table;
  table.add_rewrite({10, 20, 1});
  table.add_rewrite({11, 21, 2});
  table.add_rewrite({12, 22, 3});
  table.remove_rewrite(11);
  ASSERT_EQ(table.rewrites().size(), 2u);
  EXPECT_EQ(table.find_rewrite(11), nullptr);
  const sden::RewriteEntry* tail = table.find_rewrite(12);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->replacement, 22u);
  EXPECT_EQ(tail->via_switch, 3u);
}

TEST(ItemStoreTest, UpsertFindEraseIterate) {
  sden::ItemStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.find("missing"), nullptr);

  const std::size_t n = 500;
  for (std::size_t i = 0; i < n; ++i) {
    store.upsert("item-" + std::to_string(i), "v" + std::to_string(i));
  }
  EXPECT_EQ(store.size(), n);

  // Overwrite keeps the size and replaces the payload.
  store.upsert("item-7", "updated");
  EXPECT_EQ(store.size(), n);
  ASSERT_NE(store.find("item-7"), nullptr);
  EXPECT_EQ(*store.find("item-7"), "updated");

  // Erase every odd item; evens must stay reachable through the
  // backward-shift compaction.
  for (std::size_t i = 1; i < n; i += 2) {
    EXPECT_TRUE(store.erase("item-" + std::to_string(i)));
  }
  EXPECT_FALSE(store.erase("item-1"));
  EXPECT_EQ(store.size(), n / 2);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* hit = store.find("item-" + std::to_string(i));
    if (i % 2 == 0) {
      ASSERT_NE(hit, nullptr) << i;
    } else {
      EXPECT_EQ(hit, nullptr) << i;
    }
  }

  // Iteration yields exactly the survivors.
  std::size_t seen = 0;
  for (const auto& [id, payload] : store) {
    EXPECT_EQ(id.rfind("item-", 0), 0u);
    EXPECT_FALSE(payload.empty());
    ++seen;
  }
  EXPECT_EQ(seen, n / 2);
}

TEST(EventQueueTest, OrdersByTimeWithFifoTies) {
  sden::EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });  // FIFO among equals
  q.schedule_at(3.0, [&] { order.push_back(4); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.processed(), 4u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);

  // Scheduling into the past clamps to now (time stays monotonic), and
  // handlers scheduling new events keep running.
  q.schedule_at(1.0, [&q, &order] {
    order.push_back(5);
    q.schedule_after(0.5, [&order] { order.push_back(6); });
  });
  q.run();
  EXPECT_EQ(order.back(), 6);
  EXPECT_DOUBLE_EQ(q.now(), 3.5);
}

// The parallel retrieval replay must produce the same aggregate result
// for any thread count (deterministic sharding + reduction).
TEST(ParallelReplay, ThreadCountInvariance) {
  auto sys =
      core::GredSystem::create(make_net(32, 909), core::VirtualSpaceOptions{});
  ASSERT_TRUE(sys.ok());
  std::vector<std::string> ids;
  Rng place_rng(3);
  for (std::size_t i = 0; i < 40; ++i) {
    ids.push_back("replay-" + std::to_string(i));
    ASSERT_TRUE(
        sys.value().place(ids.back(), "payload", place_rng.next_below(32)).ok());
  }

  ThreadPool one(1);
  ThreadPool four(4);
  core::DelayModelOptions serial;
  serial.pool = &one;
  core::DelayModelOptions parallel;
  parallel.pool = &four;

  Rng r1(42);
  auto s = core::RetrievalDelayExperiment(sys.value(), serial)
               .run_uniform(ids, 300, 0.05, r1);
  Rng r2(42);
  auto p = core::RetrievalDelayExperiment(sys.value(), parallel)
               .run_uniform(ids, 300, 0.05, r2);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s.value().requests, p.value().requests);
  EXPECT_EQ(s.value().not_found, p.value().not_found);
  EXPECT_EQ(s.value().delay.count, p.value().delay.count);
  EXPECT_DOUBLE_EQ(s.value().delay.mean, p.value().delay.mean);
  EXPECT_DOUBLE_EQ(s.value().delay.p50, p.value().delay.p50);
  EXPECT_DOUBLE_EQ(s.value().delay.p99, p.value().delay.p99);
  EXPECT_DOUBLE_EQ(s.value().makespan_ms, p.value().makespan_ms);
}

}  // namespace
}  // namespace gred
