// Incremental-vs-full churn differential soak (GRED_INCREMENTAL). Two
// identical systems absorb the same seeded stream of dynamics events —
// switch join/leave, link add/remove, range extend/retract — one on
// the incremental control plane (delta-APSP, localized DT repair,
// flow-table and route-plan patching), one on the full
// recompute-and-reinstall path. After EVERY event the incremental
// system must be bit-identical to ground truth three ways:
//
//   1. its delta-maintained APSP tables equal a fresh BFS/Dijkstra run,
//   2. its repaired DT adjacency equals a fresh Bowyer-Watson build,
//   3. its installed flow tables equal the full-rebuild twin's, and
//      packets route bit-identically through the full twin's live
//      plan and the incremental twin's PATCHED plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "crypto/data_key.hpp"
#include "geometry/delaunay.hpp"
#include "graph/shortest_path.hpp"
#include "sden/network.hpp"
#include "topology/waxman.hpp"

namespace gred {
namespace {

using topology::ServerId;
using topology::SwitchId;

topology::EdgeNetwork make_net(std::size_t switches, std::uint64_t seed) {
  Rng rng(seed);
  topology::WaxmanOptions opt;
  opt.node_count = switches;
  opt.min_degree = 3;
  auto topo = topology::generate_waxman(opt, rng);
  EXPECT_TRUE(topo.ok());
  topology::EdgeNetwork net(std::move(topo).value().graph);
  for (std::size_t s = 0; s < switches; ++s) {
    const std::size_t count = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(net.attach_server(s, /*capacity=*/0).ok());
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

/// Field-wise flow-table equality of every switch of the two networks
/// (the entry structs carry no operator==). Entry ORDER matters: the
/// live pipeline's match semantics are first-wins over the vectors.
void expect_tables_equal(sden::SdenNetwork& a, sden::SdenNetwork& b,
                         int step) {
  ASSERT_EQ(a.switch_count(), b.switch_count()) << step;
  for (SwitchId s = 0; s < a.switch_count(); ++s) {
    const sden::Switch& sa = a.const_switch_at(s);
    const sden::Switch& sb = b.const_switch_at(s);
    EXPECT_EQ(sa.position().x, sb.position().x) << step << " sw " << s;
    EXPECT_EQ(sa.position().y, sb.position().y) << step << " sw " << s;
    const sden::FlowTable& ta = sa.table();
    const sden::FlowTable& tb = sb.table();
    ASSERT_EQ(ta.neighbors().size(), tb.neighbors().size())
        << step << " sw " << s;
    for (std::size_t i = 0; i < ta.neighbors().size(); ++i) {
      const sden::NeighborEntry& na = ta.neighbors()[i];
      const sden::NeighborEntry& nb = tb.neighbors()[i];
      EXPECT_EQ(na.neighbor, nb.neighbor) << step << " sw " << s;
      EXPECT_EQ(na.position.x, nb.position.x) << step << " sw " << s;
      EXPECT_EQ(na.position.y, nb.position.y) << step << " sw " << s;
      EXPECT_EQ(na.physical, nb.physical) << step << " sw " << s;
      EXPECT_EQ(na.first_hop, nb.first_hop) << step << " sw " << s;
    }
    ASSERT_EQ(ta.relays().size(), tb.relays().size()) << step << " sw " << s;
    for (std::size_t i = 0; i < ta.relays().size(); ++i) {
      const sden::RelayEntry& ra = ta.relays()[i];
      const sden::RelayEntry& rb = tb.relays()[i];
      EXPECT_EQ(ra.sour, rb.sour) << step << " sw " << s;
      EXPECT_EQ(ra.pred, rb.pred) << step << " sw " << s;
      EXPECT_EQ(ra.succ, rb.succ) << step << " sw " << s;
      EXPECT_EQ(ra.dest, rb.dest) << step << " sw " << s;
    }
    ASSERT_EQ(ta.rewrites().size(), tb.rewrites().size())
        << step << " sw " << s;
    for (std::size_t i = 0; i < ta.rewrites().size(); ++i) {
      const sden::RewriteEntry& ra = ta.rewrites()[i];
      const sden::RewriteEntry& rb = tb.rewrites()[i];
      EXPECT_EQ(ra.original, rb.original) << step << " sw " << s;
      EXPECT_EQ(ra.replacement, rb.replacement) << step << " sw " << s;
      EXPECT_EQ(ra.via_switch, rb.via_switch) << step << " sw " << s;
    }
  }
}

TEST(IncrementalChurn, SeededSoakMatchesFullRebuildBitExact) {
  const std::size_t n = 40;
  topology::EdgeNetwork desc = make_net(n, 0x1CEB00DAu);
  sden::SdenNetwork net_inc(desc);
  sden::SdenNetwork net_full(std::move(desc));

  core::Controller ctrl_inc;
  ctrl_inc.set_incremental(true);
  core::Controller ctrl_full;
  ctrl_full.set_incremental(false);
  ASSERT_TRUE(ctrl_inc.initialize(net_inc).ok());
  ASSERT_TRUE(ctrl_full.initialize(net_full).ok());

  // Seed identical storage through both fast paths.
  Rng seed_rng(0xF00Du);
  std::vector<std::string> live;
  sden::RouteResult scratch;
  for (int i = 0; i < 60; ++i) {
    const std::string id = "inc-" + std::to_string(i);
    const SwitchId ingress = seed_rng.next_below(n);
    for (sden::SdenNetwork* net : {&net_inc, &net_full}) {
      sden::Packet p =
          make_packet(id, sden::PacketType::kPlacement, "v-" + id);
      net->route(p, ingress, scratch);
      ASSERT_TRUE(scratch.status.ok()) << id;
    }
    live.push_back(id);
  }

  Rng rng(0xD15EA5Eu);
  auto random_participant = [&]() -> SwitchId {
    const auto& parts = ctrl_inc.space().participants();
    return parts[rng.next_below(parts.size())];
  };

  // After every event, the three-way ground-truth check.
  std::vector<sden::Packet> pkts;
  std::vector<SwitchId> ingresses;
  auto verify = [&](int step) {
    // 1. Delta-maintained APSP tables == fresh BFS/Dijkstra, bit-equal.
    const graph::Graph& g = net_inc.description().switches();
    EXPECT_TRUE(ctrl_inc.apsp().dist ==
                graph::all_pairs_shortest_paths(g, /*weighted=*/false).dist)
        << "step " << step << ": unweighted APSP diverged";
    EXPECT_TRUE(ctrl_inc.apsp_latency().dist ==
                graph::all_pairs_shortest_paths(g, /*weighted=*/true).dist)
        << "step " << step << ": weighted APSP diverged";

    // 2. Repaired DT adjacency == fresh Bowyer-Watson over the same
    // positions (the DT of points in general position is unique).
    auto fresh =
        geometry::DelaunayTriangulation::build(ctrl_inc.space().positions());
    ASSERT_TRUE(fresh.ok()) << "step " << step;
    const geometry::DelaunayTriangulation& repaired =
        ctrl_inc.dt().triangulation();
    ASSERT_EQ(repaired.size(), fresh.value().size()) << "step " << step;
    for (std::size_t i = 0; i < repaired.size(); ++i) {
      EXPECT_EQ(repaired.neighbors(i), fresh.value().neighbors(i))
          << "step " << step << ": DT adjacency of site " << i;
    }

    // 3. Installed state and routing equal the full-rebuild twin.
    ASSERT_EQ(ctrl_inc.space().participants(),
              ctrl_full.space().participants())
        << "step " << step;
    expect_tables_equal(net_inc, net_full, step);

    pkts.clear();
    ingresses.clear();
    for (const std::string& id : live) {
      pkts.push_back(make_packet(id, sden::PacketType::kRetrieval));
      ingresses.push_back(rng.next_below(net_inc.switch_count()));
    }
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      sden::Packet via_full = pkts[i];
      sden::RouteResult full_res;
      net_full.route(via_full, ingresses[i], full_res);
      sden::Packet via_inc = pkts[i];
      sden::RouteResult inc_res;
      net_inc.route(via_inc, ingresses[i], inc_res);
      const std::string what =
          "step " + std::to_string(step) + " pkt " + std::to_string(i);
      expect_identical(full_res, inc_res, what + " (patched plan)");
    }
  };

  verify(-1);
  ASSERT_FALSE(::testing::Test::HasFailure());

  constexpr int kEvents = 32;
  int incremental_events = 0;
  for (int step = 0; step < kEvents; ++step) {
    const std::uint64_t op = rng.next_below(6);
    bool ok_inc = false;
    bool ok_full = false;
    switch (op) {
      case 0: {  // switch join
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        auto a = ctrl_inc.add_switch(net_inc, {u, v}, /*server_count=*/2);
        auto b = ctrl_full.add_switch(net_full, {u, v}, /*server_count=*/2);
        ok_inc = a.ok();
        ok_full = b.ok();
        if (a.ok() && b.ok()) EXPECT_EQ(a.value(), b.value()) << step;
        break;
      }
      case 1: {  // switch leave (keep enough participants alive)
        if (ctrl_inc.space().participants().size() > 8) {
          const SwitchId victim = random_participant();
          ok_inc = ctrl_inc.remove_switch(net_inc, victim).ok();
          ok_full = ctrl_full.remove_switch(net_full, victim).ok();
        } else {
          const SwitchId u = random_participant();
          const SwitchId v = random_participant();
          ok_inc = ctrl_inc.add_link(net_inc, u, v).ok();
          ok_full = ctrl_full.add_link(net_full, u, v).ok();
        }
        break;
      }
      case 2: {  // link add; may fail (exists / self-loop)
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        ok_inc = ctrl_inc.add_link(net_inc, u, v).ok();
        ok_full = ctrl_full.add_link(net_full, u, v).ok();
        break;
      }
      case 3: {  // link remove; may fail (missing / would disconnect)
        const SwitchId u = random_participant();
        const SwitchId v = random_participant();
        ok_inc = ctrl_inc.remove_link(net_inc, u, v).ok();
        ok_full = ctrl_full.remove_link(net_full, u, v).ok();
        break;
      }
      case 4: {  // range extension; may fail (already active)
        const ServerId s = rng.next_below(net_inc.server_count());
        ok_inc = ctrl_inc.extend_range(net_inc, s).ok();
        ok_full = ctrl_full.extend_range(net_full, s).ok();
        break;
      }
      default: {  // retraction; may fail (none active)
        const ServerId s = rng.next_below(net_inc.server_count());
        ok_inc = ctrl_inc.retract_range(net_inc, s).ok();
        ok_full = ctrl_full.retract_range(net_full, s).ok();
        break;
      }
    }
    ASSERT_EQ(ok_inc, ok_full) << "step " << step << " op " << op
                               << ": twins diverged on op outcome";

    if (ok_inc && ctrl_inc.last_event_incremental()) ++incremental_events;

    verify(step);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "identity broke at step " << step << " (op " << op << ")";
  }

  // The point of the soak is the incremental path; if nearly every
  // event fell back to the full rebuild the differential proved
  // nothing. (Fallbacks are legal — staleness, collisions — but must
  // stay the exception at this scale.)
  EXPECT_GE(incremental_events, kEvents / 3)
      << "incremental path engaged too rarely";
}

// The toggle itself: dynamics under GRED_INCREMENTAL default to the
// env flag, and set_incremental switches at runtime.
TEST(IncrementalChurn, ToggleReportsIncrementalEvents) {
  topology::EdgeNetwork desc = make_net(16, 0xBEEFu);
  sden::SdenNetwork net(std::move(desc));
  core::Controller ctrl;
  ctrl.set_incremental(false);
  ASSERT_TRUE(ctrl.initialize(net).ok());

  ASSERT_TRUE(ctrl.add_link(net, 0, 9, 1.0).ok() ||
              ctrl.add_link(net, 0, 10, 1.0).ok());
  EXPECT_FALSE(ctrl.last_event_incremental());
  EXPECT_TRUE(ctrl.last_affected_switches().empty());

  ctrl.set_incremental(true);
  SwitchId u = 0;
  SwitchId v = 0;
  for (SwitchId cand = 2; cand < net.switch_count(); ++cand) {
    if (net.description().switches().find_edge(1, cand) == nullptr) {
      u = 1;
      v = cand;
      break;
    }
  }
  ASSERT_NE(u, v);
  ASSERT_TRUE(ctrl.add_link(net, u, v, 1.0).ok());
  EXPECT_TRUE(ctrl.last_event_incremental());
  const auto& affected = ctrl.last_affected_switches();
  EXPECT_FALSE(affected.empty());
  EXPECT_TRUE(std::binary_search(affected.begin(), affected.end(), u));
  EXPECT_TRUE(std::binary_search(affected.begin(), affected.end(), v));
}

}  // namespace
}  // namespace gred
