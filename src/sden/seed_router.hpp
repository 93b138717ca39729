// Seed-faithful data plane: routes a packet the way the SEED data
// plane did, before the indexed flow tables and the compiled route
// plan existed — sequential closer_to scans over the AoS neighbor
// entries, first-match linear scans of the relay and rewrite vectors,
// a fresh SHA-256 of the data id at every delivery, and a freshly
// allocated RouteResult per packet. It is the slowest and most literal
// of the reference walks; the differential tests hold the compiled
// fast path, the live pipeline (reference_router.hpp), and this walk
// mutually bit-identical, statuses included (via the shared
// route_errors constructors).
#pragma once

#include <string>

#include "crypto/data_key.hpp"
#include "sden/network.hpp"
#include "sden/route_errors.hpp"

namespace gred::sden {

/// Routes `pkt` from `ingress` seed-style. Storage side effects go
/// through the same ServerNode objects the other routers use, so
/// interleaving on retrievals is safe. Consults the network's injected
/// FaultState exactly like the other routers, so the differential
/// holds under faults too.
inline RouteResult seed_faithful_route(SdenNetwork& net, Packet pkt,
                                       SwitchId ingress) {
  RouteResult result;
  if (ingress >= net.switch_count()) {
    result.status = route_errors::bad_ingress();
    return result;
  }

  const FaultState* const faults =
      (net.fault_state() != nullptr && net.fault_state()->any())
          ? net.fault_state()
          : nullptr;
  const std::uint64_t salt = faults != nullptr ? fault_packet_salt(pkt) : 0;
  if (faults != nullptr && faults->switch_is_down(ingress)) {
    result.fail(route_errors::ingress_down(ingress));
    return result;
  }

  const graph::Graph& links = net.description().switches();
  SwitchId cur = ingress;
  result.switch_path.push_back(cur);

  const std::size_t max_hops = net.max_route_hops();
  for (std::size_t step = 0; step < max_hops; ++step) {
    const Switch& sw = net.const_switch_at(cur);
    const FlowTable& table = sw.table();

    // Stage 1: relay (first-match linear scan, like the seed's
    // match_relay returning optional<RelayEntry>).
    if (pkt.on_virtual_link()) {
      if (pkt.vlink_dest == cur) {
        pkt.clear_virtual_link();
      } else {
        const RelayEntry* relay = nullptr;
        for (const RelayEntry& r : table.relays()) {
          if (r.dest == pkt.vlink_dest) {
            relay = &r;
            break;
          }
        }
        if (relay == nullptr) {
          result.fail(route_errors::no_relay(cur));
          return result;
        }
        const graph::EdgeTo* edge = links.find_edge(cur, relay->succ);
        if (edge == nullptr) {
          result.fail(route_errors::missing_link(cur, relay->succ));
          return result;
        }
        if (faults != nullptr) {
          Status hop =
              route_errors::check_traversal(*faults, cur, relay->succ, salt);
          if (!hop.ok()) {
            result.fail(std::move(hop));
            return result;
          }
        }
        result.path_cost += edge->weight;
        cur = relay->succ;
        result.switch_path.push_back(cur);
        continue;
      }
    }

    if (!sw.dt_participant()) {
      result.fail(route_errors::non_dt_transit(cur));
      return result;
    }

    // Stage 2: greedy candidate scan with closer_to calls (Algorithm 2
    // exactly as the seed's greedy_forward).
    const NeighborEntry* best = nullptr;
    for (const NeighborEntry& cand : table.neighbors()) {
      if (best == nullptr ||
          geometry::closer_to(pkt.target, cand.position, best->position)) {
        best = &cand;
      }
    }
    if (best != nullptr &&
        geometry::closer_to(pkt.target, best->position, sw.position())) {
      SwitchId next;
      if (best->physical) {
        next = best->neighbor;
      } else {
        pkt.vlink_dest = best->neighbor;
        pkt.vlink_sour = cur;
        next = best->first_hop;
      }
      const graph::EdgeTo* edge = links.find_edge(cur, next);
      if (edge == nullptr) {
        result.fail(route_errors::missing_link(cur, next));
        return result;
      }
      if (faults != nullptr) {
        Status hop = route_errors::check_traversal(*faults, cur, next, salt);
        if (!hop.ok()) {
          result.fail(std::move(hop));
          return result;
        }
      }
      result.path_cost += edge->weight;
      cur = next;
      result.switch_path.push_back(cur);
      continue;
    }

    // Delivery: the seed hashed the id afresh (SHA-256 + position
    // derivation) and linearly matched the rewrite table, addressing
    // both candidates on a rewritten retrieval/removal exactly like
    // Switch::deliver.
    const std::vector<ServerId>& servers = sw.local_servers();
    if (servers.empty()) {
      result.fail(route_errors::no_servers(cur));
      return result;
    }
    const crypto::DataKey key(pkt.data_id);
    const std::size_t idx = static_cast<std::size_t>(key.mod(servers.size()));
    const ServerId chosen = servers[idx];
    const RewriteEntry* rewrite = nullptr;
    for (const RewriteEntry& r : table.rewrites()) {
      if (r.original == chosen) {
        rewrite = &r;
        break;
      }
    }

    struct Target {
      ServerId server;
      SwitchId via;
    };
    Target targets[2];
    std::size_t target_count = 0;
    if (rewrite == nullptr) {
      targets[target_count++] = {chosen, cur};
    } else if (pkt.type == PacketType::kPlacement) {
      targets[target_count++] = {rewrite->replacement, rewrite->via_switch};
    } else {
      targets[target_count++] = {chosen, cur};
      targets[target_count++] = {rewrite->replacement, rewrite->via_switch};
    }

    for (std::size_t t = 0; t < target_count; ++t) {
      const Target& target = targets[t];
      if (target.server >= net.server_count()) {
        result.fail(Status(ErrorCode::kInternal, "delivery to unknown server"));
        return result;
      }
      if (target.via != cur) {
        const graph::EdgeTo* edge = links.find_edge(cur, target.via);
        if (edge == nullptr) {
          result.fail(route_errors::handoff_missing_link());
          return result;
        }
        if (faults != nullptr) {
          Status hop =
              route_errors::check_traversal(*faults, cur, target.via, salt);
          if (!hop.ok()) {
            result.fail(std::move(hop));
            return result;
          }
        }
        result.path_cost += edge->weight;
        result.switch_path.push_back(target.via);
      }
      result.delivered_to.push_back(target.server);

      ServerNode& node = net.server(target.server);
      if (pkt.type == PacketType::kPlacement) {
        const Status stored = node.store(pkt.data_id, pkt.payload);
        if (!stored.ok()) {
          result.fail(stored);
          return result;
        }
      } else if (pkt.type == PacketType::kRetrieval) {
        if (const std::string* payload = node.find(pkt.data_id)) {
          result.found = true;
          result.responder = target.server;
          result.payload = *payload;
          node.note_retrieval();
        }
      } else {  // kRemoval
        if (node.erase(pkt.data_id)) {
          result.found = true;
          result.responder = target.server;
        }
      }
    }
    return result;
  }
  result.fail(route_errors::hop_bound());
  return result;
}

}  // namespace gred::sden
