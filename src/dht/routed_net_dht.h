// RoutedNetDht: the Dht interface over real datagrams (DESIGN.md §14-15).
//
// Client-routed, single-hop: the client holds a View — a consistent-hash
// MemberRing plus every member's endpoint — so a routed op is hash →
// owner → one RPC. Where the view comes from is fixed at construction:
//
//  * Options::nodes — a FROZEN view of a static cluster of plain
//    NodeServers (no inter-node protocol). Each address becomes one
//    synthetic member entry (id = nodeIdFor(addr), ringBase = id), so
//    placement depends on the address set alone and every client process
//    agrees on it. A frozen view never refreshes: a silent owner fails
//    the op after its first deadline, and no membership pull is ever sent.
//  * Options::seed — a REFRESHABLE view of a self-routing overlay
//    cluster. bootstrap() gossip-pulls the seed's membership table
//    (GossipSync with senderId 0 marks a client pull) and builds the ring
//    every overlay node computes (MemberRing is a pure function of the
//    table). The view heals itself three ways, all lazy:
//     - Redirect: an op that lands on the wrong node (stale view during a
//       join/leave) comes back Status::Redirect with the fresh owner
//       endpoint; the client re-pulls the table and retries. With
//       server-side forwarding the op instead succeeds in one client
//       round trip and only the hint reveals the staleness.
//     - Gossip hints: every overlay reply trailer carries (senderId,
//       table version). A version bump from a node heard before means
//       the membership changed; the next op re-pulls first.
//     - Timeouts: a silent owner gets one view refresh + retry before the
//       op fails with DhtTimeoutError (a crashed node's range moves to
//       the promoted survivor, so the retry usually lands).
//
// Replication is client-driven: the writer pushes copies to the key's
// successor holders (one settle per committed write), mirroring
// ChordDht's primary/replica split so getReplica and the failover
// decorators behave identically.
//
// apply() over a network: the mutator is an arbitrary client-side
// closure, so it cannot run at the server. apply uses versioned CAS —
// GET returns (value, version); the mutator runs locally; CAS applies iff
// the version is unchanged. A conflict reply carries the current
// (version, value), so each retry costs one round, not two. Mutators are
// already required to be idempotent (lost-reply semantics), which is
// exactly the property that makes CAS retries safe.
//
// multiGet/multiApply group keys by owner and pack them into
// MultiGet/MultiCas datagrams (capped per datagram), so a round costs
// ~one datagram per involved node instead of one per key. On a
// refreshable view a Redirect or timeout on a chunk refreshes the view
// and regroups just that chunk's entries; a chunk whose reply would not
// fit one datagram (Status::TooLarge) is halved and resent.
//
// Transport is injected via factory: UdpTransport for real clusters,
// SimHub endpoints for deterministic tests. Each concurrent caller
// borrows a (transport, RpcClient) connection from an internal pool, so
// a ClientFleet drives one RoutedNetDht from many threads.
//
// Failure mapping: an RPC that exhausts its deadline surfaces as
// DhtTimeoutError (getReplica: DhtPeerDownError — a silent holder is a
// down holder), which is what the Retrying/Failover decorators and the
// leaf-cache lease machinery key on.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dht/dht.h"
#include "overlay/membership.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace lht::dht {

class RoutedNetDht final : public Dht {
 public:
  using TransportFactory = std::function<std::unique_ptr<rpc::Transport>()>;

  struct Options {
    /// Exactly one of `nodes` / `seed` is set (checked at construction).
    /// `nodes`: the static cluster's addresses — a frozen view.
    std::vector<rpc::NetAddr> nodes;
    /// `seed`: any live overlay member; everything else is learned.
    rpc::NetAddr seed;
    /// Must match the cluster's overlay options on a seeded view (the
    /// ring is a pure function of table + these).
    size_t virtualNodes = 32;
    /// Total copies of each key (primary + replicas), clamped to the
    /// member count. 1 = no replication.
    size_t replication = 1;
    rpc::RpcClient::Options rpc;
    /// Batch packing caps: keys per MultiGet/MultiCas datagram, and a
    /// soft byte budget per datagram (hard cap is kMaxDatagramBytes).
    size_t maxKeysPerDatagram = 32;
    size_t maxBytesPerDatagram = 48 * 1024;
    /// CAS attempts per apply before giving up (contention bound).
    size_t casRetries = 16;
    /// Client-side attempts per op on a seeded view (each attempt =
    /// route + one RPC); redirects and refresh-retries consume attempts.
    size_t maxAttempts = 4;
    /// Batch rounds: regroups after Redirects/timeouts and resends of
    /// halved too-large chunks.
    size_t maxBatchRounds = 4;
  };

  struct RoutedStats {
    common::u64 bootstraps = 0;       ///< successful table pulls
    common::u64 refreshes = 0;        ///< view rebuilds after the first
    common::u64 redirectsFollowed = 0;
    common::u64 staleHints = 0;       ///< hint version bumps observed
    common::u64 retriesAfterTimeout = 0;
    // Transport + RPC totals aggregated across the connection pool.
    common::u64 datagramsSent = 0;
    common::u64 datagramsReceived = 0;
    common::u64 bytesSent = 0;
    common::u64 bytesReceived = 0;
    common::u64 requestsStarted = 0;
    common::u64 retransmits = 0;
    common::u64 timeouts = 0;
    common::u64 connections = 0;
  };

  RoutedNetDht(Options options, TransportFactory makeTransport);
  ~RoutedNetDht() override;

  /// Seeded view: pulls the membership table from the seed, retrying
  /// until it answers with a non-empty table or `deadlineMs` of transport
  /// time passes; ops before a successful bootstrap throw DhtTimeoutError.
  /// Safe to call again (acts as a forced refresh).
  /// Frozen view: pings every still-silent member concurrently each round
  /// until all answer or the deadline passes (run it before traffic:
  /// freshly exec'd daemons may not be bound yet).
  /// Returns whether the view is complete.
  bool bootstrap(common::u64 deadlineMs);

  // Dht interface ------------------------------------------------------------
  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t replicaFanout() const override;
  std::optional<Value> getReplica(const Key& key,
                                  size_t replicaIndex) override;
  void syncStorage() override;
  void compactStorage() override;
  [[nodiscard]] size_t size() const override;

  [[nodiscard]] RoutedStats routedStats() const;
  /// Members (state <= Suspect) in the current view; 0 = not bootstrapped.
  [[nodiscard]] size_t knownMembers() const;

 private:
  struct Conn {
    std::unique_ptr<rpc::Transport> transport;
    std::unique_ptr<rpc::RpcClient> rpc;
  };
  class Lease;  // RAII borrow of one Conn

  /// Immutable routing view, atomically swapped on refresh. Readers copy
  /// the shared_ptr under a short lock and route lock-free.
  struct View {
    /// Ring members (state <= Suspect) of a membership snapshot.
    View(const std::vector<rpc::wire::NodeEntry>& entries,
         size_t virtualNodes);
    overlay::MemberRing ring;
    std::unordered_map<common::u64, rpc::NetAddr> addrs;  // ring members
    std::vector<rpc::NetAddr> pullTargets;  // members to refresh from
  };
  /// One key's answer from a batched GET round; `error` empty = answered.
  struct Fetched {
    std::string error;
    rpc::wire::GetRep rep;
  };

  [[nodiscard]] bool frozen() const { return !opts_.nodes.empty(); }
  [[nodiscard]] std::shared_ptr<const View> view() const;
  [[nodiscard]] std::shared_ptr<const View> requireView() const;
  /// Pulls the table from `from` and installs a fresh view on success.
  bool pullView(rpc::RpcClient& cli, const rpc::NetAddr& from);
  /// Re-pulls from any current member (falling back to the seed). A
  /// frozen view never refreshes: returns false without sending.
  bool refreshView(rpc::RpcClient& cli);
  /// Tracks per-sender table versions from reply hints; a bump schedules
  /// a refresh before the next routed attempt.
  void noteHint(const std::optional<rpc::wire::GossipHint>& hint);

  /// Routes a single-key op: resolve owner, call; on a seeded view follow
  /// redirects / refresh-and-retry on timeout, up to maxAttempts. Each
  /// attempt after the first adds one to stats_.hops.
  rpc::RpcClient::Result callRouted(rpc::RpcClient& cli, const Key& key,
                                    const rpc::wire::RequestBody& body);
  /// Batched GET rounds shared by multiGet and multiApply's snapshot.
  std::vector<Fetched> batchGet(rpc::RpcClient& cli,
                                const std::vector<Key>& keys,
                                const char* op);
  /// Pushes/drops the replica copies of one committed write, all holders
  /// in one settle. Best-effort: a silent holder is counted
  /// (routedStats().timeouts), not thrown — the write already committed
  /// at the primary.
  void replicate(rpc::RpcClient& cli, const Key& key,
                 const std::optional<Value>& value, common::u64 version);
  /// Sends `body` to every member of the view in one settle and returns
  /// every reply.
  std::vector<rpc::RpcClient::Result> fanOut(
      const rpc::wire::RequestBody& body) const;

  Options opts_;
  TransportFactory makeTransport_;

  mutable std::mutex viewMutex_;
  std::shared_ptr<const View> view_;
  std::unordered_map<common::u64, common::u64> hintVersions_;
  bool refreshWanted_ = false;

  mutable std::mutex poolMutex_;
  mutable std::vector<std::unique_ptr<Conn>> conns_;
  mutable std::vector<size_t> freeConns_;

  mutable std::mutex statsMutex_;
  RoutedStats routedStats_;
};

}  // namespace lht::dht
