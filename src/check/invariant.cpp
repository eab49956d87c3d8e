// Invariant engine: netsim conservation laws under randomized fault plans.
//
// Each case draws a random fault configuration, runs a deterministic TTL
// sweep against a cached country scenario, and asserts the laws the
// measurement tools depend on:
//
//   - every delivered ICMP quote parses (parse_quoted) and names the
//     probe the client actually sent;
//   - delivered quote count is conserved: equal to the engine's
//     icmp_quotes counter on a clean plan, bounded by quotes + duplicates
//     under faults;
//   - fault counters for knobs a plan disables stay exactly zero (the
//     fault layer's provable-inertness contract);
//   - a same-seed replay of the whole sweep is byte-identical (the
//     hermetic-epoch contract the parallel pipeline rests on);
//   - path search answered from the per-source BFS memo equals a fresh
//     per-pair search on a seeded random graph.
#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "check/engines.hpp"
#include "core/bytes.hpp"
#include "net/dns.hpp"
#include "net/http.hpp"
#include "net/packet.hpp"
#include "netsim/compact.hpp"
#include "netsim/engine.hpp"
#include "netsim/faults.hpp"
#include "obs/observer.hpp"
#include "scenario/country.hpp"
#include "tomography/tomography.hpp"

namespace cen::check {

namespace {

/// Scenarios are expensive to build and fully reset by reset_epoch(), so
/// each worker thread lazily builds one per country and reuses it across
/// cases. Thread assignment cannot leak into results: every case rebases
/// all mutable state on a seed derived from the case seed alone.
scenario::CountryScenario& cached_scenario(int country_index) {
  thread_local std::array<std::unique_ptr<scenario::CountryScenario>, 4> cache;
  auto& slot = cache[static_cast<std::size_t>(country_index)];
  if (slot == nullptr) {
    slot = std::make_unique<scenario::CountryScenario>(scenario::make_country(
        static_cast<scenario::Country>(country_index), scenario::Scale::kSmall, 7));
  }
  return *slot;
}

/// The knobs one case exercises, drawn once so the replay run reuses the
/// exact same configuration.
struct SweepConfig {
  sim::FaultPlan plan;
  std::size_t endpoint_index = 0;
  std::uint8_t max_ttl = 8;
  bool use_https_payload = false;
  bool also_udp = false;
  std::uint64_t epoch_seed = 0;
};

SweepConfig random_config(CaseContext& ctx, const scenario::CountryScenario& sc) {
  SweepConfig cfg;
  Rng& rng = ctx.rng;
  sim::FaultPlan& plan = cfg.plan;
  if (rng.chance(0.3)) plan.transient_loss = rng.real() * 0.15;
  if (rng.chance(0.4)) plan.default_link.loss = rng.real() * 0.2;
  if (rng.chance(0.4)) plan.default_link.duplicate = rng.real() * 0.2;
  if (rng.chance(0.3)) plan.default_link.reorder = rng.real() * 0.2;
  if (rng.chance(0.25)) plan.default_link.truncate = rng.real() * 0.2;
  if (rng.chance(0.25)) plan.default_link.corrupt = rng.real() * 0.2;
  if (rng.chance(0.15)) plan.default_node.icmp_blackhole = true;
  if (rng.chance(0.3)) {
    plan.default_node.icmp_rate_per_sec = 0.5 + rng.real() * 10.0;
    plan.default_node.icmp_burst = 1.0 + rng.real() * 4.0;
  }
  if (rng.chance(0.2)) plan.route_flap_period = 1 + rng.uniform(2000);
  cfg.endpoint_index = rng.index(sc.remote_endpoints.size());
  cfg.max_ttl = static_cast<std::uint8_t>(4 + rng.uniform(10));
  cfg.use_https_payload = rng.chance(0.3);
  cfg.also_udp = rng.chance(0.4);
  cfg.epoch_seed = mix64(ctx.case_seed ^ 0x696e76657065ull);
  return cfg;
}

void append_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void append_event(Bytes& transcript, const sim::Event& ev) {
  if (const auto* icmp = std::get_if<sim::IcmpEvent>(&ev)) {
    transcript.push_back('I');
    append_u32(transcript, icmp->router.value());
    append_u32(transcript, static_cast<std::uint32_t>(icmp->quoted.size()));
    transcript.insert(transcript.end(), icmp->quoted.begin(), icmp->quoted.end());
  } else if (const auto* tcp = std::get_if<sim::TcpEvent>(&ev)) {
    transcript.push_back('T');
    const Bytes b = tcp->packet.serialize();
    append_u32(transcript, static_cast<std::uint32_t>(b.size()));
    transcript.insert(transcript.end(), b.begin(), b.end());
  } else if (const auto* udp = std::get_if<sim::UdpEvent>(&ev)) {
    transcript.push_back('U');
    const Bytes b = udp->datagram.serialize();
    append_u32(transcript, static_cast<std::uint32_t>(b.size()));
    transcript.insert(transcript.end(), b.begin(), b.end());
  }
}

struct SweepOutcome {
  Bytes transcript;  // every event the client captured, in order
  std::uint64_t icmp_delivered = 0;
  std::uint64_t icmp_quotes = 0;
  std::uint64_t duplicates = 0;
  bool established = false;
};

/// One full sweep: install the plan, rebase the epoch, connect, walk the
/// TTL ladder, optionally fire a UDP DNS probe. `verify` runs the
/// per-event checks (only on the first pass; the replay pass just records
/// the transcript). `net` is normally the scenario's own network, but the
/// clone-identity check passes a clone() replica instead.
SweepOutcome run_sweep(CaseContext& ctx, scenario::CountryScenario& sc,
                       sim::Network& net, const SweepConfig& cfg, bool verify) {
  SweepOutcome out;
  obs::Observer observer;
  sim::ScopedObserver scoped(net, &observer);
  net.set_fault_plan(cfg.plan);
  net.reset_epoch(cfg.epoch_seed);

  const bool mangling = cfg.plan.default_link.truncate > 0.0 ||
                        cfg.plan.default_link.corrupt > 0.0;
  const net::Ipv4Address dst = sc.remote_endpoints[cfg.endpoint_index];
  sim::Connection conn =
      net.open_connection(sc.remote_client, dst, cfg.use_https_payload ? 443 : 80);
  out.established = conn.connect() == sim::ConnectResult::kEstablished;
  if (out.established) {
    const std::string domain =
        cfg.use_https_payload
            ? (sc.https_test_domains.empty() ? sc.control_domain
                                             : sc.https_test_domains.front())
            : sc.control_domain;
    const Bytes payload = cfg.use_https_payload
                              ? net::ClientHello::make(domain).serialize()
                              : net::HttpRequest::get(domain).serialize_bytes();
    for (std::uint8_t ttl = 1; ttl <= cfg.max_ttl; ++ttl) {
      const std::vector<sim::Event> events = conn.send(payload, ttl);
      for (const sim::Event& ev : events) {
        append_event(out.transcript, ev);
        if (const auto* icmp = std::get_if<sim::IcmpEvent>(&ev)) {
          ++out.icmp_delivered;
          if (!verify) continue;
          bool complete = false;
          try {
            const net::Packet quoted = net::Packet::parse_quoted(icmp->quoted, complete);
            if (!mangling) {
              const net::Packet& sent = conn.last_sent();
              ctx.expect(quoted.ip.src == sent.ip.src && quoted.ip.dst == sent.ip.dst,
                         "invariant/icmp-quote-addrs",
                         "quote addresses do not match the probe just sent");
              ctx.expect(quoted.tcp.src_port == sent.tcp.src_port &&
                             quoted.tcp.dst_port == sent.tcp.dst_port &&
                             quoted.tcp.seq == sent.tcp.seq,
                         "invariant/icmp-quote-flow",
                         "quote ports/seq do not match the probe just sent");
            }
          } catch (const ParseError& e) {
            // A mangled forward payload may damage the quoted prefix;
            // with mangling disabled every quote must parse.
            if (!mangling) {
              ctx.fail("invariant/icmp-quote-parse",
                       std::string("quote failed to parse on a clean link: ") + e.what());
            }
          } catch (const std::exception& e) {
            ctx.fail("invariant/icmp-quote-parse",
                     std::string("parse_quoted threw a non-ParseError: ") + e.what());
          }
        } else if (const auto* tcp = std::get_if<sim::TcpEvent>(&ev)) {
          if (verify) {
            ctx.expect(tcp->packet.tcp.dst_port == conn.source_port(),
                       "invariant/tcp-delivery",
                       "TCP packet delivered to the wrong ephemeral port");
          }
        }
      }
    }
  }
  if (cfg.also_udp) {
    const net::DnsMessage query = net::make_dns_query(sc.control_domain);
    const std::vector<sim::Event> events =
        net.send_udp(sc.remote_client, dst, 53, query.serialize(), cfg.max_ttl);
    for (const sim::Event& ev : events) {
      append_event(out.transcript, ev);
      if (std::holds_alternative<sim::IcmpEvent>(ev)) ++out.icmp_delivered;
    }
  }

  out.icmp_quotes = observer.engine().icmp_quotes->value();
  out.duplicates = observer.faults().duplicates->value();

  if (verify) {
    // Conservation: the engine counts a quote only when it is actually
    // delivered, so the client's capture can differ from the counter only
    // by duplicated deliveries.
    if (cfg.plan.inert()) {
      ctx.expect(out.icmp_delivered == out.icmp_quotes, "invariant/icmp-conservation",
                 "clean plan delivered " + std::to_string(out.icmp_delivered) +
                     " quotes but the engine counted " + std::to_string(out.icmp_quotes));
    } else {
      ctx.expect(out.icmp_delivered >= out.icmp_quotes &&
                     out.icmp_delivered <= out.icmp_quotes + out.duplicates,
                 "invariant/icmp-conservation",
                 "delivered " + std::to_string(out.icmp_delivered) + " quotes, counted " +
                     std::to_string(out.icmp_quotes) + " + " +
                     std::to_string(out.duplicates) + " duplicates");
    }
    // Provable inertness: a knob left at zero must never fire.
    const obs::FaultCounters& fc = observer.faults();
    const sim::FaultProfile& link = cfg.plan.default_link;
    auto zero_if_disabled = [&](double knob, const obs::Counter* counter,
                                const char* name) {
      ctx.expect(knob > 0.0 || counter->value() == 0, "invariant/fault-inertness",
                 std::string(name) + " fired " + std::to_string(counter->value()) +
                     " times with its knob disabled");
    };
    zero_if_disabled(link.loss, fc.link_loss, "link_loss");
    zero_if_disabled(link.duplicate, fc.duplicates, "duplicates");
    zero_if_disabled(link.reorder, fc.reorders, "reorders");
    zero_if_disabled(link.truncate, fc.payload_truncates, "payload_truncates");
    zero_if_disabled(link.corrupt, fc.payload_corruptions, "payload_corruptions");
    zero_if_disabled(cfg.plan.default_node.icmp_blackhole ? 1.0 : 0.0,
                     fc.icmp_blackholed, "icmp_blackholed");
    zero_if_disabled(cfg.plan.default_node.icmp_rate_per_sec, fc.icmp_rate_limited,
                     "icmp_rate_limited");
    zero_if_disabled(cfg.plan.mgmt_drop, fc.mgmt_drops, "mgmt_drops");
    zero_if_disabled(cfg.plan.banner_truncate, fc.banner_truncates, "banner_truncates");
  }
  return out;
}

/// Independent check of one per-pair answer: a fresh integer-distance
/// BFS from src that also counts shortest paths (with link multiplicity,
/// as the enumerator does). The answer must hold min(count, cap) sorted
/// paths, each a src→dst walk over links of exactly the shortest length.
bool shortest_paths_valid(const sim::Topology& t, sim::NodeId src, sim::NodeId dst,
                          const std::vector<std::vector<sim::NodeId>>& paths) {
  std::vector<int> dist(t.node_count(), -1);
  std::vector<std::uint64_t> count(t.node_count(), 0);
  std::vector<sim::NodeId> queue{src};
  dist[src] = 0;
  count[src] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const sim::NodeId u = queue[head];
    for (sim::NodeId v : t.neighbors(u)) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
      if (dist[v] == dist[u] + 1) {
        count[v] = std::min<std::uint64_t>(count[v] + count[u], sim::kMaxEcmpPaths);
      }
    }
  }
  if (paths.size() != count[dst] || !std::is_sorted(paths.begin(), paths.end())) return false;
  for (const std::vector<sim::NodeId>& path : paths) {
    if (path.size() != static_cast<std::size_t>(dist[dst]) + 1 || path.front() != src ||
        path.back() != dst) {
      return false;
    }
    for (std::size_t i = 1; i < path.size(); ++i) {
      const std::span<const sim::NodeId> nbrs = t.neighbors(path[i - 1]);
      if (std::find(nbrs.begin(), nbrs.end(), path[i]) == nbrs.end()) return false;
    }
  }
  return true;
}

/// Path-search memo law: equal_cost_paths answered from the per-source
/// BFS memo must equal a per-pair search — the same query on a copy of
/// the never-searched graph, which runs one fresh BFS for exactly that
/// pair — and that answer must pass shortest_paths_valid. Random
/// connected core plus isolated nodes (unreachable destinations),
/// queries interleaved across several sources, both backends; the
/// graph's size scales with the mutation budget.
void check_path_memo(CaseContext& ctx) {
  Rng& rng = ctx.rng;
  const std::size_t n = 8 + rng.index(24 + 8 * static_cast<std::size_t>(ctx.budget));
  const std::size_t isolated = rng.index(3);
  sim::Topology pristine;
  sim::CompactTopologyBuilder cb;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Ipv4Address ip(10, 3, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i));
    pristine.add_node("p" + std::to_string(i), ip);
    cb.add_node("p" + std::to_string(i), ip);
  }
  const std::size_t core = n - isolated;
  auto link = [&](std::size_t a, std::size_t b) {
    pristine.add_link(static_cast<sim::NodeId>(a), static_cast<sim::NodeId>(b));
    cb.add_link(static_cast<sim::NodeId>(a), static_cast<sim::NodeId>(b));
  };
  for (std::size_t i = 1; i < core; ++i) link(rng.index(i), i);
  for (std::size_t c = rng.index(2 * n); c > 0; --c) {
    const std::size_t a = rng.index(core);
    const std::size_t b = rng.index(core);
    if (a != b) link(a, b);
  }
  const sim::Topology memo_classic = pristine;
  const sim::Topology memo_compact = sim::Topology::from_compact(cb.build());

  std::vector<sim::NodeId> sources(1 + rng.index(3));
  for (sim::NodeId& src : sources) src = static_cast<sim::NodeId>(rng.index(n));
  bool same = true;
  std::string where;
  for (int q = 0; q < 48 && same; ++q) {
    const sim::NodeId src = sources[rng.index(sources.size())];
    const sim::NodeId dst = rng.chance(0.1) ? src : static_cast<sim::NodeId>(rng.index(n));
    const sim::Topology cold = pristine;
    const auto& expected = cold.equal_cost_paths(src, dst);
    same = shortest_paths_valid(pristine, src, dst, expected) &&
           memo_classic.equal_cost_paths(src, dst) == expected &&
           memo_compact.equal_cost_paths(src, dst) == expected;
    if (!same) where = std::to_string(src) + "->" + std::to_string(dst);
  }
  ctx.expect(same, "invariant/path-memo",
             "memoized path search differs from a valid per-pair search at " + where);
  const std::set<sim::NodeId> distinct(sources.begin(), sources.end());
  ctx.expect(memo_classic.path_searches() <= distinct.size() &&
                 memo_compact.path_searches() <= distinct.size(),
             "invariant/path-memo",
             "more than one BFS per source (" +
                 std::to_string(memo_classic.path_searches()) + " for " +
                 std::to_string(distinct.size()) + " sources)");
}

}  // namespace

void run_invariant_case(CaseContext& ctx) {
  const int country = static_cast<int>(ctx.case_seed % 4);
  scenario::CountryScenario& sc = cached_scenario(country);
  const SweepConfig cfg = random_config(ctx, sc);

  const SweepOutcome first = run_sweep(ctx, sc, *sc.network, cfg, true);

  // Hermetic-epoch replay: the same plan and epoch seed must reproduce
  // the exact capture and counters, byte for byte. Sampled (it doubles
  // the cost of a case), but across a run every country gets coverage.
  if (ctx.case_seed % 4 == 0) {
    const SweepOutcome replay = run_sweep(ctx, sc, *sc.network, cfg, false);
    ctx.expect(replay.transcript == first.transcript, "invariant/replay",
               "same-seed replay produced a different event transcript (" +
                   std::to_string(first.transcript.size()) + " vs " +
                   std::to_string(replay.transcript.size()) + " bytes)");
    ctx.expect(replay.icmp_quotes == first.icmp_quotes &&
                   replay.duplicates == first.duplicates &&
                   replay.established == first.established,
               "invariant/replay", "same-seed replay produced different counters");
  }

  // Clone identity: a clone() replica reset to the same epoch must emit a
  // byte-identical transcript — the contract the parallel executor rests
  // on. The replica shares the prototype's topology paths, endpoint map,
  // geo database and device configs copy-on-write, so any state leaking
  // through those shared structures (or any divergence in the rebuilt
  // per-replica device/RNG state) shows up here as a transcript diff.
  if (ctx.case_seed % 4 == 1) {
    const std::unique_ptr<sim::Network> replica = sc.network->clone();
    const SweepOutcome mirror = run_sweep(ctx, sc, *replica, cfg, false);
    ctx.expect(mirror.transcript == first.transcript, "invariant/clone",
               "clone() replica produced a different event transcript (" +
                   std::to_string(first.transcript.size()) + " vs " +
                   std::to_string(mirror.transcript.size()) + " bytes)");
    ctx.expect(mirror.icmp_quotes == first.icmp_quotes &&
                   mirror.duplicates == first.duplicates &&
                   mirror.established == first.established,
               "invariant/clone", "clone() replica produced different counters");
  }

  // Tomography solver law: the minimal-blocking-link-set output depends
  // only on the observation SET — permuting row order and relabeling the
  // vantage indices must not change the solution. (The solver backs the
  // degradation ladder; order sensitivity here would break byte-identity
  // across --threads.)
  {
    const int pool = 6 + static_cast<int>(ctx.rng.uniform(6));
    const std::size_t n_rows = 6 + ctx.rng.uniform(9);
    tomo::ObservationMatrix matrix;
    for (std::size_t i = 0; i < n_rows; ++i) {
      tomo::PathObservation row;
      const int hops = 3 + static_cast<int>(ctx.rng.uniform(4));
      sim::NodeId at = static_cast<sim::NodeId>(ctx.rng.uniform(
          static_cast<std::uint64_t>(pool)));
      row.path.push_back(at);
      for (int h = 1; h < hops; ++h) {
        // Step to a different node; repeats across the walk are fine
        // (LinkId normalizes, duplicate links collapse in the solver).
        sim::NodeId next = at;
        while (next == at) {
          next = static_cast<sim::NodeId>(ctx.rng.uniform(
              static_cast<std::uint64_t>(pool)));
        }
        row.path.push_back(next);
        at = next;
      }
      row.blocked = ctx.rng.chance(0.4);
      row.vantage = static_cast<int>(i % 3);
      matrix.add(std::move(row));
    }
    const tomo::TomographyResult base = tomo::solve(matrix);

    tomo::ObservationMatrix shuffled;
    for (std::size_t idx : ctx.rng.permutation(matrix.size())) {
      tomo::PathObservation row = matrix.rows()[idx];
      row.vantage = static_cast<int>(idx % 5);  // relabeled vantages
      shuffled.add(std::move(row));
    }
    const tomo::TomographyResult perm = tomo::solve(shuffled);

    ctx.expect(perm.solved == base.solved && perm.cover_size == base.cover_size &&
                   perm.unexplained_observations == base.unexplained_observations,
               "invariant/tomography",
               "solver verdict changed under row permutation");
    bool same_candidates = perm.candidates.size() == base.candidates.size();
    for (std::size_t i = 0; same_candidates && i < base.candidates.size(); ++i) {
      const tomo::LinkBlame& a = base.candidates[i];
      const tomo::LinkBlame& b = perm.candidates[i];
      same_candidates = a.link == b.link && a.confidence == b.confidence &&
                        a.blocked_paths == b.blocked_paths;
    }
    ctx.expect(same_candidates, "invariant/tomography",
               "candidate link set changed under vantage permutation");
    ++ctx.checks;
  }

  check_path_memo(ctx);
}

}  // namespace cen::check
