#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <set>

#include "core/rng.hpp"
#include "netsim/compact.hpp"
#include "netsim/topology.hpp"

using namespace cen;
using namespace cen::sim;

namespace {
Topology line(int n) {
  Topology t;
  for (int i = 0; i < n; ++i) {
    t.add_node("n" + std::to_string(i), net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  for (int i = 0; i + 1 < n; ++i) t.add_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  return t;
}


/// The per-pair search equal_cost_paths used before the per-source memo:
/// a fresh whole-graph BFS from src on every call, then a predecessor DFS
/// back from dst. Kept verbatim as the reference the memo must reproduce.
std::vector<std::vector<NodeId>> per_pair_paths(const Topology& t, NodeId src, NodeId dst) {
  std::vector<int> dist(t.node_count(), -1);
  std::deque<NodeId> queue;
  dist[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : t.neighbors(u)) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  std::vector<std::vector<NodeId>> paths;
  if (dist[dst] != -1) {
    std::vector<std::vector<NodeId>> stack;
    stack.push_back({dst});
    while (!stack.empty() && paths.size() < kMaxEcmpPaths) {
      std::vector<NodeId> partial = std::move(stack.back());
      stack.pop_back();
      NodeId head = partial.back();
      if (head == src) {
        paths.emplace_back(partial.rbegin(), partial.rend());
        continue;
      }
      std::vector<NodeId> preds;
      for (NodeId v : t.neighbors(head)) {
        if (dist[v] == dist[head] - 1) preds.push_back(v);
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
  return paths;
}

/// The same graph on both backends, built in lockstep.
struct TwinGraph {
  Topology classic;
  CompactTopologyBuilder builder;
  Topology compact;  // set by finish()

  NodeId add_node(const std::string& name, net::Ipv4Address ip) {
    builder.add_node(name, ip);
    return classic.add_node(name, ip);
  }
  void link(std::size_t a, std::size_t b) {
    classic.add_link(static_cast<NodeId>(a), static_cast<NodeId>(b));
    builder.add_link(static_cast<NodeId>(a), static_cast<NodeId>(b));
  }
  void finish() { compact = Topology::from_compact(builder.build()); }
};

/// A sparse spanning chain over most nodes, random chords (short cycles
/// give ECMP fan-out), and a few isolated nodes at the end so some
/// destinations are unreachable.
void random_twin(TwinGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 20 + rng.index(60);
  const std::size_t isolated = 1 + rng.index(3);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node("n" + std::to_string(i), net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i >> 8),
                                                         static_cast<std::uint8_t>(i)));
  }
  const std::size_t connected = n - isolated;
  for (std::size_t i = 1; i < connected; ++i) g.link(rng.index(i), i);
  const std::size_t chords = rng.index(2 * n);
  for (std::size_t c = 0; c < chords; ++c) {
    const std::size_t a = rng.index(connected);
    const std::size_t b = rng.index(connected);
    if (a != b) g.link(a, b);
  }
  g.finish();
}
}  // namespace

TEST(Topology, SinglePathOnALine) {
  Topology t = line(5);
  const auto& paths = t.equal_cost_paths(0, 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Topology, NoPathWhenDisconnected) {
  Topology t;
  t.add_node("a", net::Ipv4Address(1, 0, 0, 1));
  t.add_node("b", net::Ipv4Address(1, 0, 0, 2));
  EXPECT_TRUE(t.equal_cost_paths(0, 1).empty());
  EXPECT_TRUE(t.route(0, 1, 99).empty());
}

TEST(Topology, SelfPath) {
  Topology t = line(2);
  const auto& paths = t.equal_cost_paths(0, 0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], std::vector<NodeId>{0});
}

TEST(Topology, DiamondHasTwoEqualCostPaths) {
  // 0 - {1,2} - 3
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(1, 3);
  t.add_link(2, 3);
  const auto& paths = t.equal_cost_paths(0, 3);
  ASSERT_EQ(paths.size(), 2u);
  std::set<std::vector<NodeId>> unique(paths.begin(), paths.end());
  EXPECT_TRUE(unique.count({0, 1, 3}));
  EXPECT_TRUE(unique.count({0, 2, 3}));
}

TEST(Topology, ShorterPathPreferredOverDetour) {
  // 0-1-3 (length 2) vs 0-1-2-3 (length 3): only the shortest is ECMP.
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(1, 3);
  t.add_link(1, 2);
  t.add_link(2, 3);
  const auto& paths = t.equal_cost_paths(0, 3);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1, 3}));
}

TEST(Topology, RouteIsDeterministicPerHash) {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(0, 2);
  t.add_link(1, 3);
  t.add_link(2, 3);
  const auto& p1 = t.route(0, 3, 12345);
  const auto& p2 = t.route(0, 3, 12345);
  EXPECT_EQ(p1, p2);
  // Different hashes cover both ECMP paths.
  std::set<std::vector<NodeId>> seen;
  for (std::uint64_t h = 0; h < 16; ++h) seen.insert(t.route(0, 3, h));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Topology, EcmpCapHolds) {
  // A ladder of k parallel 2-node rungs yields 2^k shortest paths; the
  // enumerator must cap at kMaxEcmpPaths instead of exploding, and keep
  // the per-pair search's capped subset and order on both backends.
  TwinGraph g;
  NodeId prev = g.add_node("s", net::Ipv4Address(10, 0, 1, 0));
  for (int stage = 0; stage < 10; ++stage) {
    const auto st = static_cast<std::uint8_t>(stage);
    NodeId a = g.add_node("a", net::Ipv4Address(10, 1, st, 1));
    NodeId b = g.add_node("b", net::Ipv4Address(10, 1, st, 2));
    NodeId join = g.add_node("j", net::Ipv4Address(10, 1, st, 3));
    g.link(prev, a);
    g.link(prev, b);
    g.link(a, join);
    g.link(b, join);
    prev = join;
  }
  g.finish();
  for (const Topology* t : {&g.classic, &g.compact}) {
    // Warm the source's BFS table on a shorter query first.
    EXPECT_EQ(t->equal_cost_paths(0, 6).size(), 4u);
    const auto& paths = t->equal_cost_paths(0, prev);
    EXPECT_EQ(paths.size(), kMaxEcmpPaths);
    EXPECT_EQ(paths, per_pair_paths(*t, 0, prev));
    EXPECT_EQ(t->path_searches(), 1u);
  }
}

TEST(Topology, FindByIp) {
  Topology t = line(3);
  auto id = t.find_by_ip(net::Ipv4Address(10, 0, 0, 2));
  ASSERT_TRUE(id);
  EXPECT_EQ(*id, 1u);
  EXPECT_FALSE(t.find_by_ip(net::Ipv4Address(10, 0, 0, 99)));
}

TEST(Topology, BadLinkThrows) {
  Topology t = line(2);
  EXPECT_THROW(t.add_link(0, 5), std::out_of_range);
}

TEST(Topology, PathCacheInvalidatedByNewLink) {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.add_node("n", net::Ipv4Address(10, 0, 0, static_cast<uint8_t>(i + 1)));
  }
  t.add_link(0, 1);
  t.add_link(1, 3);
  EXPECT_EQ(t.equal_cost_paths(0, 3).size(), 1u);
  t.add_link(0, 2);
  t.add_link(2, 3);
  EXPECT_EQ(t.equal_cost_paths(0, 3).size(), 2u);
}

TEST(TopologyPathMemo, MatchesPerPairSearchOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    TwinGraph g;
    random_twin(g, seed);
    Rng rng(seed * 7919);
    const std::size_t n = g.classic.node_count();
    // A few sources, queried in an interleaved order so the memo serves
    // a different source's table on consecutive calls.
    std::vector<NodeId> sources;
    for (int s = 0; s < 3; ++s) sources.push_back(static_cast<NodeId>(rng.index(n)));
    std::set<NodeId> distinct(sources.begin(), sources.end());
    for (int q = 0; q < 120; ++q) {
      const NodeId src = sources[static_cast<std::size_t>(q) % sources.size()];
      // Every 11th query asks for the source itself.
      const NodeId dst = q % 11 == 0 ? src : static_cast<NodeId>(rng.index(n));
      const auto expected = per_pair_paths(g.classic, src, dst);
      ASSERT_EQ(g.classic.equal_cost_paths(src, dst), expected)
          << "classic seed " << seed << " " << src << "->" << dst;
      ASSERT_EQ(g.compact.equal_cost_paths(src, dst), expected)
          << "compact seed " << seed << " " << src << "->" << dst;
    }
    // The last node is always isolated: unreachable from every source
    // but itself.
    const NodeId lone = static_cast<NodeId>(n - 1);
    for (NodeId src : sources) {
      if (src == lone) continue;
      EXPECT_TRUE(g.classic.equal_cost_paths(src, lone).empty());
      EXPECT_TRUE(g.compact.equal_cost_paths(src, lone).empty());
    }
    // One whole-graph search per distinct source, however many queries.
    EXPECT_EQ(g.classic.path_searches(), distinct.size()) << "seed " << seed;
    EXPECT_EQ(g.compact.path_searches(), distinct.size()) << "seed " << seed;
  }
}

TEST(TopologyPathMemo, EditsAfterASearchDropTheMemo) {
  Topology t = line(5);
  EXPECT_EQ(t.equal_cost_paths(0, 4)[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(t.path_searches(), 1u);

  // A shortcut link: a destination never queried before must see it, so
  // the per-source BFS table (not just the path cache) has to go.
  t.add_link(0, 4);
  const auto& via_shortcut = t.equal_cost_paths(0, 3);
  ASSERT_EQ(via_shortcut.size(), 1u);
  EXPECT_EQ(via_shortcut[0], (std::vector<NodeId>{0, 4, 3}));
  EXPECT_EQ(via_shortcut, per_pair_paths(t, 0, 3));
  EXPECT_EQ(t.path_searches(), 2u);

  // A new node grows the graph past the old table's size.
  const NodeId tail = t.add_node("tail", net::Ipv4Address(10, 0, 0, 77));
  t.add_link(4, tail);
  EXPECT_EQ(t.equal_cost_paths(0, tail), (std::vector<std::vector<NodeId>>{{0, 4, tail}}));
  EXPECT_EQ(t.equal_cost_paths(0, tail), per_pair_paths(t, 0, tail));
  EXPECT_EQ(t.path_searches(), 3u);
}

TEST(TopologyPathMemo, CopyAfterASearchDivergesIndependently) {
  Topology original = line(5);
  EXPECT_EQ(original.equal_cost_paths(0, 4).size(), 1u);

  // The copy shares the original's table: no second search.
  Topology copy = original;
  EXPECT_EQ(copy.equal_cost_paths(0, 2)[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(copy.path_searches(), 1u);

  copy.add_link(0, 3);
  EXPECT_EQ(copy.equal_cost_paths(0, 4)[0], (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(copy.equal_cost_paths(0, 4), per_pair_paths(copy, 0, 4));
  EXPECT_EQ(copy.path_searches(), 2u);

  // The original still answers from its own, unedited graph.
  EXPECT_EQ(original.equal_cost_paths(0, 3)[0], (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(original.equal_cost_paths(0, 4)[0], (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(original.path_searches(), 1u);
}
