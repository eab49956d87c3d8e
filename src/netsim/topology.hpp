// Simulated network topology: routers, links, and ECMP path computation.
//
// Paths between a client and an endpoint are all shortest paths in the
// link graph; a flow's 5-tuple hash picks one, mirroring per-flow ECMP
// load balancing. Because CenTrace opens a fresh TCP connection (fresh
// source port) per probe (§4.1), consecutive probes can ride different
// paths — the path-variance problem the tool tames with repetition.
//
// Each router carries a profile controlling the ICMP behaviours the paper
// measures: whether it answers TTL exhaustion at all, how much of the
// original datagram it quotes (RFC 792 vs RFC 1812), and whether it
// rewrites the IP TOS / flags of transiting packets (§4.3 observes TOS
// deltas in 32% of quoted packets).
//
// Two storage backends share this interface:
//   classic  mutable per-node `Node` structs (hand-built scenarios,
//            tests that edit profiles in place);
//   compact  an immutable shared CompactTopology (structure-of-arrays,
//            CSR adjacency — see netsim/compact.hpp), used by worldgen
//            for million-node networks. Copying a compact-backed
//            Topology is a refcount bump.
// The narrow accessors (node_ip / node_profile / node_name /
// node_services, span-returning neighbors) work on both; the mutable
// node() reference and add_node/add_link are classic-only and throw
// std::logic_error on a compact backend.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "censor/device.hpp"  // ServiceBanner, for router management planes
#include "core/flat_map.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"

namespace cen::sim {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xffffffffu;

struct RouterProfile {
  bool responds_icmp = true;
  net::QuotePolicy quote_policy = net::QuotePolicy::kRfc792;
  /// If set, the router rewrites the TOS byte of packets it forwards.
  std::optional<std::uint8_t> rewrite_tos;
  /// Quirky gear that clears the DF flag of transiting packets.
  bool clears_df_flag = false;
};

struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  net::Ipv4Address ip;
  RouterProfile profile;
  /// Management services exposed on this router's IP (most expose none;
  /// some answer SSH/Telnet with generic banners — the paper's 68-of-163
  /// "has open ports but no vendor label" population).
  std::vector<censor::ServiceBanner> services;
};

class CompactTopology;

/// Maximum number of equal-cost paths enumerated per (src, dst) pair.
constexpr std::size_t kMaxEcmpPaths = 128;

class Topology {
 public:
  Topology() = default;
  /// Wrap an immutable compact topology (shared, zero-copy).
  static Topology from_compact(std::shared_ptr<const CompactTopology> compact);

  /// Classic-backend mutation; throws std::logic_error on a compact backend.
  NodeId add_node(std::string name, net::Ipv4Address ip, RouterProfile profile = {});
  /// Undirected link between two existing nodes (classic backend only).
  void add_link(NodeId a, NodeId b);

  /// Whole-node access (classic backend only — compact nodes have no
  /// materialized Node struct; use the narrow accessors below).
  const Node& node(NodeId id) const;
  Node& node(NodeId id);

  /// Narrow per-field accessors, valid on both backends. These are what
  /// the engine's hot paths use.
  net::Ipv4Address node_ip(NodeId id) const;
  const RouterProfile& node_profile(NodeId id) const;
  std::string_view node_name(NodeId id) const;
  const std::vector<censor::ServiceBanner>& node_services(NodeId id) const;

  bool compact() const { return compact_ != nullptr; }
  const std::shared_ptr<const CompactTopology>& compact_backend() const { return compact_; }

  std::size_t node_count() const;
  std::optional<NodeId> find_by_ip(net::Ipv4Address ip) const;
  /// Direct neighbours of a node (link adjacency).
  std::span<const NodeId> neighbors(NodeId id) const;

  /// All shortest paths src→dst (inclusive of both), capped at
  /// kMaxEcmpPaths, in a deterministic order (sorted). Two memo layers:
  ///   - the (src, dst) path lists (frozen snapshot + local additions);
  ///   - one whole-graph BFS table per source. Every tool measures from
  ///     one vantage toward many endpoints, so a path-cache miss only
  ///     walks the shortest-path DAG back from dst against the source's
  ///     table: one BFS per (replica, source), not per pair.
  /// Both are invalidated by add_link/add_node on this instance only;
  /// copies share the immutable tables by reference.
  const std::vector<std::vector<NodeId>>& equal_cost_paths(NodeId src, NodeId dst) const;

  /// Pick the path a given flow hash rides.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash) const;

  /// Route with a routing-epoch salt folded in (the fault layer's route
  /// flapping). A zero salt selects exactly the unsalted path.
  const std::vector<NodeId>& route(NodeId src, NodeId dst, std::uint64_t flow_hash,
                                   std::uint64_t salt) const;

  /// Structural digest over nodes (name, IP, router profile, services)
  /// and links — a campaign cache-key component: any topology edit must
  /// change it. Backend-independent: a compact topology and its classic
  /// inflation digest identically.
  std::uint64_t fingerprint() const;

  /// Promote every locally cached (src, dst) path list into an immutable
  /// shared snapshot. Copies of this topology (worker replicas) then share
  /// the snapshot by reference instead of deep-copying the cache — the
  /// dominant cost of the old Network::clone(). Logically const: the path
  /// cache is memoization, not topology state. Safe to share across
  /// threads because the snapshot is never mutated after creation; paths
  /// computed *after* the freeze land in the instance-local cache.
  void freeze_paths() const;

  /// Path-cache effectiveness counters (host-scheduling dependent on
  /// replicas — export them wall-domain only, never into deterministic
  /// snapshots).
  std::uint64_t path_cache_hits() const { return path_cache_hits_; }
  std::uint64_t path_cache_misses() const { return path_cache_misses_; }
  /// Whole-graph BFS runs (per-source tables computed) on this instance.
  std::uint64_t path_searches() const { return path_searches_; }
  /// Entries in the shared frozen snapshot (0 before the first freeze).
  std::size_t frozen_path_entries() const {
    return frozen_paths_ ? frozen_paths_->size() : 0;
  }

 private:
  using EcmpPaths = std::vector<std::vector<NodeId>>;
  using PathKey = std::pair<NodeId, NodeId>;
  /// Values are shared_ptr so returned path references stay stable while
  /// the flat map's backing vector grows, and so freezing/copying shares
  /// the (immutable) path lists instead of duplicating them.
  using PathMap = core::FlatMap<PathKey, std::shared_ptr<const EcmpPaths>>;
  /// Per node, its BFS hop distance from one source modulo 3, or
  /// kUnreached. Links are undirected, so a neighbour of a node at
  /// distance d sits at d-1, d or d+1 — three values that stay distinct
  /// mod 3. That is all the predecessor walk needs to test, at one byte a
  /// node instead of four.
  using Levels = std::vector<std::uint8_t>;
  static constexpr std::uint8_t kUnreached = 0xff;
  using LevelMap = core::FlatMap<NodeId, std::shared_ptr<const Levels>>;

  /// The memoized level table from `src` (runs the BFS on a miss).
  const Levels& levels_from(NodeId src) const;
  /// Drop every path memo on this instance (after a topology edit).
  void invalidate_paths();

  std::vector<Node> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  core::FlatMap<std::uint32_t, NodeId> ip_index_;
  /// Compact backend; when set, nodes_/adjacency_/ip_index_ stay empty.
  std::shared_ptr<const CompactTopology> compact_;
  /// Immutable shared snapshot (read-only, shareable across replicas).
  mutable std::shared_ptr<const PathMap> frozen_paths_;
  /// Instance-local additions since the last freeze.
  mutable PathMap local_paths_;
  /// Per-source level tables; few keys (the client plus any tomography
  /// vantages), each node_count() bytes.
  mutable LevelMap levels_;
  mutable std::uint64_t path_cache_hits_ = 0;
  mutable std::uint64_t path_cache_misses_ = 0;
  mutable std::uint64_t path_searches_ = 0;
};

}  // namespace cen::sim
