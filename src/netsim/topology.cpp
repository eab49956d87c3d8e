#include "netsim/topology.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fingerprint.hpp"
#include "core/rng.hpp"
#include "netsim/compact.hpp"

namespace cen::sim {

Topology Topology::from_compact(std::shared_ptr<const CompactTopology> compact) {
  if (compact == nullptr) throw std::invalid_argument("from_compact: null backend");
  Topology t;
  t.compact_ = std::move(compact);
  return t;
}

NodeId Topology::add_node(std::string name, net::Ipv4Address ip, RouterProfile profile) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::add_node: compact backend is immutable");
  }
  Node n;
  n.id = static_cast<NodeId>(nodes_.size());
  n.name = std::move(name);
  n.ip = ip;
  n.profile = profile;
  nodes_.push_back(std::move(n));
  adjacency_.emplace_back();
  ip_index_.emplace(ip.value(), nodes_.back().id);
  invalidate_paths();
  return nodes_.back().id;
}

void Topology::add_link(NodeId a, NodeId b) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::add_link: compact backend is immutable");
  }
  if (a >= nodes_.size() || b >= nodes_.size()) throw std::out_of_range("bad node id");
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  invalidate_paths();
}

void Topology::invalidate_paths() {
  // Invalidate locally only: replicas sharing a frozen snapshot or a
  // level table keep their own (still-valid-for-them) reference.
  frozen_paths_.reset();
  local_paths_.clear();
  levels_.clear();
}

const Node& Topology::node(NodeId id) const {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::node: not available on a compact backend");
  }
  return nodes_.at(id);
}

Node& Topology::node(NodeId id) {
  if (compact_ != nullptr) {
    throw std::logic_error("Topology::node: not available on a compact backend");
  }
  return nodes_.at(id);
}

net::Ipv4Address Topology::node_ip(NodeId id) const {
  if (compact_ != nullptr) return compact_->ip(id);
  return nodes_.at(id).ip;
}

const RouterProfile& Topology::node_profile(NodeId id) const {
  if (compact_ != nullptr) return compact_->profile(id);
  return nodes_.at(id).profile;
}

std::string_view Topology::node_name(NodeId id) const {
  if (compact_ != nullptr) return compact_->name(id);
  return nodes_.at(id).name;
}

const std::vector<censor::ServiceBanner>& Topology::node_services(NodeId id) const {
  if (compact_ != nullptr) return compact_->services(id);
  return nodes_.at(id).services;
}

std::size_t Topology::node_count() const {
  return compact_ != nullptr ? compact_->node_count() : nodes_.size();
}

std::optional<NodeId> Topology::find_by_ip(net::Ipv4Address ip) const {
  if (compact_ != nullptr) return compact_->find_by_ip(ip);
  auto it = ip_index_.find(ip.value());
  if (it == ip_index_.end()) return std::nullopt;
  return it->second;
}

std::span<const NodeId> Topology::neighbors(NodeId id) const {
  if (compact_ != nullptr) return compact_->neighbors(id);
  const std::vector<NodeId>& nbrs = adjacency_.at(id);
  return std::span<const NodeId>(nbrs.data(), nbrs.size());
}

void Topology::freeze_paths() const {
  if (local_paths_.empty() && frozen_paths_ != nullptr) return;
  auto merged = std::make_shared<PathMap>();
  if (frozen_paths_ != nullptr) *merged = *frozen_paths_;
  merged->reserve(merged->size() + local_paths_.size());
  for (const auto& [key, paths] : local_paths_) merged->insert_or_assign(key, paths);
  frozen_paths_ = std::move(merged);
  local_paths_.clear();
}

const Topology::Levels& Topology::levels_from(NodeId src) const {
  auto it = levels_.find(src);
  if (it != levels_.end()) return *it->second;
  ++path_searches_;
  // Whole-graph BFS, one level at a time over two flat frontier vectors:
  // transient memory is two levels, not a queue of every node.
  auto levels = std::make_shared<Levels>(node_count(), kUnreached);
  std::vector<NodeId> frontier{src};
  std::vector<NodeId> next;
  (*levels)[src] = 0;
  for (std::uint8_t level = 1; !frontier.empty();
       level = static_cast<std::uint8_t>((level + 1) % 3)) {
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId v : neighbors(u)) {
        if ((*levels)[v] == kUnreached) {
          (*levels)[v] = level;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  const Levels& ref = *levels;
  levels_.emplace(src, std::move(levels));
  return ref;
}

const std::vector<std::vector<NodeId>>& Topology::equal_cost_paths(NodeId src,
                                                                   NodeId dst) const {
  const PathKey key{src, dst};
  if (frozen_paths_ != nullptr) {
    auto it = frozen_paths_->find(key);
    if (it != frozen_paths_->end()) {
      ++path_cache_hits_;
      return *it->second;
    }
  }
  auto it = local_paths_.find(key);
  if (it != local_paths_.end()) {
    ++path_cache_hits_;
    return *it->second;
  }
  ++path_cache_misses_;

  // Enumerate all shortest paths by walking src's BFS DAG from dst back
  // to src.
  const Levels& level = levels_from(src);
  std::vector<std::vector<NodeId>> paths;
  if (level[dst] != kUnreached) {
    // Iterative DFS over predecessors on shortest paths.
    std::vector<std::vector<NodeId>> stack;
    stack.push_back({dst});
    while (!stack.empty() && paths.size() < kMaxEcmpPaths) {
      std::vector<NodeId> partial = std::move(stack.back());
      stack.pop_back();
      NodeId head = partial.back();
      if (head == src) {
        std::vector<NodeId> full(partial.rbegin(), partial.rend());
        paths.push_back(std::move(full));
        continue;
      }
      // Deterministic order: ascending neighbour id. A predecessor is the
      // neighbour one level closer to src.
      const std::uint8_t pred_level = static_cast<std::uint8_t>((level[head] + 2) % 3);
      std::vector<NodeId> preds;
      for (NodeId v : neighbors(head)) {
        if (level[v] == pred_level) preds.push_back(v);
      }
      std::sort(preds.begin(), preds.end(), std::greater<NodeId>());
      for (NodeId v : preds) {
        std::vector<NodeId> next = partial;
        next.push_back(v);
        stack.push_back(std::move(next));
      }
    }
    std::sort(paths.begin(), paths.end());
  }
  auto shared = std::make_shared<const EcmpPaths>(std::move(paths));
  const EcmpPaths& ref = *shared;
  local_paths_.emplace(key, std::move(shared));
  return ref;
}

const std::vector<NodeId>& Topology::route(NodeId src, NodeId dst,
                                           std::uint64_t flow_hash) const {
  const auto& paths = equal_cost_paths(src, dst);
  if (paths.empty()) {
    static const std::vector<NodeId> kEmpty;
    return kEmpty;
  }
  return paths[flow_hash % paths.size()];
}

const std::vector<NodeId>& Topology::route(NodeId src, NodeId dst,
                                           std::uint64_t flow_hash,
                                           std::uint64_t salt) const {
  return route(src, dst, salt == 0 ? flow_hash : mix64(flow_hash ^ salt));
}

std::uint64_t Topology::fingerprint() const {
  if (compact_ != nullptr) return compact_->fingerprint();
  FingerprintBuilder fp;
  fp.mix(static_cast<std::uint64_t>(nodes_.size()));
  for (const Node& n : nodes_) {
    fp.mix(n.name);
    fp.mix(static_cast<std::uint64_t>(n.ip.value()));
    fp.mix(n.profile.responds_icmp);
    fp.mix(static_cast<std::uint64_t>(n.profile.quote_policy));
    fp.mix(n.profile.rewrite_tos.has_value());
    if (n.profile.rewrite_tos) fp.mix(static_cast<std::uint64_t>(*n.profile.rewrite_tos));
    fp.mix(n.profile.clears_df_flag);
    fp.mix(static_cast<std::uint64_t>(n.services.size()));
    for (const censor::ServiceBanner& s : n.services) {
      fp.mix(static_cast<std::uint64_t>(s.port));
      fp.mix(s.protocol);
      fp.mix(s.banner);
    }
  }
  for (const std::vector<NodeId>& nbrs : adjacency_) {
    fp.mix(static_cast<std::uint64_t>(nbrs.size()));
    for (NodeId nb : nbrs) fp.mix(static_cast<std::uint64_t>(nb));
  }
  return fp.digest();
}

}  // namespace cen::sim
