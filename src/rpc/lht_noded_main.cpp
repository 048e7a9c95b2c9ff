// lht_noded: one storage peer of a networked LHT cluster.
//
// Binds a UDP port on localhost and answers the wire protocol
// (rpc/wire.h) until SIGTERM/SIGINT. Two personalities:
//
//  * Plain (default): a dumb versioned KV store; all routing lives in the
//    clients (RoutedNetDht over a frozen view of the node list).
//  * Overlay (--overlay=true): wraps the store in an overlay::OverlayNode
//    — gossip membership, server-side forward/redirect for misrouted
//    ops, and live join/leave. Bootstrap either from a static peer list
//    (--peers=9301,9302,... — every daemon of a fixed launch seeds the
//    same table) or by joining a running cluster via any live member
//    (--seed-port=9301). SIGUSR1 triggers a graceful leave: stream every
//    key to its new owner, announce Left, exit 0.
//
//   lht_noded --port=9101 --name=node-1
//   lht_noded --port=0 --overlay=true --seed-port=9101 --port-file=/tmp/n2
//
// Prints exactly one line when it is ready to serve:
//   lht_noded: ready on 127.0.0.1:<port>
// and, when --port-file is given, writes the bound port (digits only) to
// that file — the race-free handshake run_cluster.sh relies on with
// ephemeral ports. Both are part of the daemon's contract.
//
// Exit codes: 0 clean shutdown (including leave), 1 bind/setup failure,
// 2 flag error, 3 join failed (seed never answered / all refused).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "overlay/overlay_node.h"
#include "rpc/node_server.h"
#include "rpc/udp_transport.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_leave{false};

void onSignal(int) { g_stop.store(true, std::memory_order_relaxed); }
void onLeave(int) { g_leave.store(true, std::memory_order_relaxed); }

std::vector<lht::rpc::u16> parsePorts(const std::string& csv) {
  std::vector<lht::rpc::u16> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(
        static_cast<lht::rpc::u16>(std::stoi(csv.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lht;
  common::Flags flags("lht_noded",
                      "networked LHT storage peer (UDP, localhost)");
  flags.define("port", "0", "UDP port to bind (0 = ephemeral)");
  flags.define("name", "node", "peer name reported by ping");
  flags.define("quiet", "false", "suppress the shutdown summary");
  flags.define("port-file", "",
               "write the bound port to this file once ready");
  flags.define("overlay", "false",
               "run the self-routing overlay (gossip + forwarding)");
  flags.define("peers", "",
               "overlay: comma-separated ports of the static launch set");
  flags.define("seed-port", "0",
               "overlay: join a live cluster via this member port");
  flags.define("join-deadline-ms", "10000", "overlay: join handshake budget");
  flags.define("leave-deadline-ms", "10000",
               "overlay: graceful-leave streaming budget");
  flags.define("virtual-nodes", "32", "overlay: ring points per member");
  flags.define("replication", "1", "overlay: copies per key (crash repair)");
  flags.define("gossip-interval-ms", "250", "overlay: anti-entropy cadence");
  if (!flags.parse(argc, argv)) return 2;

  // SIGTERM/SIGINT flip the stop flag; epoll_wait returns with EINTR and
  // the serve loop notices. No SA_RESTART, by design. SIGUSR1 asks an
  // overlay node to leave gracefully (plain nodes treat it as stop).
  struct sigaction sa{};
  sa.sa_handler = onSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  struct sigaction sl{};
  sl.sa_handler = onLeave;
  sigaction(SIGUSR1, &sl, nullptr);

  rpc::UdpTransport::Options topts;
  topts.bindPort = static_cast<rpc::u16>(flags.getInt("port"));
  std::unique_ptr<rpc::UdpTransport> transport;
  try {
    transport = std::make_unique<rpc::UdpTransport>(topts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lht_noded: %s\n", e.what());
    return 1;
  }

  const std::string name = flags.getString("name");
  const std::string portFile = flags.getString("port-file");
  auto announceReady = [&] {
    if (!portFile.empty()) {
      // Write to a temp name then rename: a reader never sees a partial
      // file, so "file exists" == "port is valid".
      const std::string tmp = portFile + ".tmp";
      if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
        std::fprintf(f, "%u\n", unsigned{transport->localAddr().port});
        std::fclose(f);
        std::rename(tmp.c_str(), portFile.c_str());
      } else {
        std::fprintf(stderr, "lht_noded: cannot write %s\n", portFile.c_str());
      }
    }
    std::printf("lht_noded: ready on %s\n",
                transport->localAddr().str().c_str());
    std::fflush(stdout);
  };

  if (!flags.getBool("overlay")) {
    rpc::NodeServer::Options nopts;
    nopts.name = name;
    rpc::NodeServer server(nopts);
    announceReady();
    server.serve(*transport, g_stop);
    if (!flags.getBool("quiet")) {
      std::fprintf(
          stderr,
          "lht_noded: %s stopping (handled=%llu dedup_hits=%llu "
          "bad=%llu primary_keys=%zu)\n",
          name.c_str(),
          static_cast<unsigned long long>(server.stats().requestsHandled),
          static_cast<unsigned long long>(server.stats().dedupHits),
          static_cast<unsigned long long>(server.stats().badRequests),
          server.primaryKeyCount());
    }
    return 0;
  }

  // Overlay personality.
  overlay::OverlayNode::Options oopts;
  oopts.name = name;
  oopts.server.name = name;
  oopts.virtualNodes = static_cast<size_t>(flags.getInt("virtual-nodes"));
  oopts.replication = static_cast<size_t>(flags.getInt("replication"));
  oopts.gossipIntervalMs =
      static_cast<common::u64>(flags.getInt("gossip-interval-ms"));
  overlay::OverlayNode node(oopts, *transport);

  const auto peerPorts = parsePorts(flags.getString("peers"));
  if (!peerPorts.empty()) {
    std::vector<rpc::wire::NodeEntry> entries;
    for (const rpc::u16 p : peerPorts) {
      rpc::wire::NodeEntry e;
      e.host = rpc::kLoopbackHost;
      e.port = p;
      e.id = overlay::nodeIdFor(rpc::NetAddr{e.host, e.port});
      e.ringBase = e.id;
      e.incarnation = 1;
      e.state = static_cast<common::u8>(overlay::NodeState::Alive);
      entries.push_back(e);
    }
    node.seedMembership(entries);
  }

  const int seedPort = flags.getInt("seed-port");
  if (seedPort != 0) {
    // Announce readiness BEFORE joining: the parent may gate the next
    // daemon's launch on this one's port file, and the join handshake
    // below already serves traffic (pumpOnce-driven).
    announceReady();
    const rpc::NetAddr seed{rpc::kLoopbackHost,
                            static_cast<rpc::u16>(seedPort)};
    if (!node.joinCluster(
            seed, static_cast<common::u64>(flags.getInt("join-deadline-ms")))) {
      std::fprintf(stderr, "lht_noded: %s failed to join via %s\n",
                   name.c_str(), seed.str().c_str());
      return 3;
    }
    std::fprintf(stderr, "lht_noded: %s joined (%zu members known)\n",
                 name.c_str(), node.membership().ringMemberCount());
  } else {
    announceReady();
  }

  size_t keysStreamedOut = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    node.pumpOnce(200);
    if (g_leave.load(std::memory_order_relaxed)) {
      keysStreamedOut = node.leaveGracefully(
          static_cast<common::u64>(flags.getInt("leave-deadline-ms")));
      break;
    }
  }

  if (!flags.getBool("quiet")) {
    const auto& st = node.overlayStats();
    std::fprintf(
        stderr,
        "lht_noded: %s stopping (handled=%llu forwards=%llu redirects=%llu "
        "gossip_rounds=%llu joins_served=%llu handoff_keys=%llu "
        "promoted=%llu left_streamed=%zu primary_keys=%zu)\n",
        name.c_str(),
        static_cast<unsigned long long>(node.server().stats().requestsHandled),
        static_cast<unsigned long long>(st.forwards),
        static_cast<unsigned long long>(st.redirects),
        static_cast<unsigned long long>(st.gossipRounds),
        static_cast<unsigned long long>(st.joinsServed),
        static_cast<unsigned long long>(st.handoffKeysSent),
        static_cast<unsigned long long>(st.replicasPromoted), keysStreamedOut,
        node.server().primaryKeyCount());
  }
  return 0;
}
