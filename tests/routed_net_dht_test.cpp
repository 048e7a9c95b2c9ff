// RoutedNetDht against a live (sim-transport) overlay cluster: bootstrap
// from a single seed, warm one-hop routing, redirect-following across a
// membership change, and crash failover through replica promotion — the
// deterministic twin of the kernel-UDP paths bench_overlay measures.
//
// The overlay nodes run real serve() loops on background threads (the
// client's calls block inside settle(), so somebody must pump the
// servers); virtual clocks make that spin fast without wall-clock sleeps.
#include "dht/routed_net_dht.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "overlay/overlay_node.h"
#include "rpc/sim_transport.h"

namespace lht::dht {
namespace {

using overlay::OverlayNode;
using rpc::NetAddr;
using rpc::SimHub;
using rpc::SimTransport;

constexpr rpc::u16 kBasePort = 6100;

/// Wall-throttled sim endpoint. A SimTransport's idle receive() advances
/// its PRIVATE virtual clock by the full wait instantly, so a blocked
/// thread can spin through any virtual deadline before the threads
/// serving the other endpoints get scheduled even once. Here an idle wait
/// of T virtual ms first lasts T * kWallUsPerMs of real time, polled in
/// short slices so an arriving datagram ends it early. Every endpoint's
/// virtual clock then advances at one fixed wall rate whatever the wait
/// lengths, so a 2 s request deadline gives the serving threads 100 ms of
/// real time to be scheduled even on a loaded host, while finite
/// timeouts (needed by the crash-failover test) still fire fast.
class ThrottledSim final : public rpc::Transport {
 public:
  static constexpr rpc::u64 kWallUsPerMs = 50;

  explicit ThrottledSim(std::unique_ptr<SimTransport> inner)
      : inner_(std::move(inner)) {}
  bool send(const NetAddr& to, std::string_view payload) override {
    return inner_->send(to, payload);
  }
  size_t receive(std::vector<rpc::Datagram>& out, rpc::u64 timeoutMs) override {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(timeoutMs * kWallUsPerMs);
    while (true) {
      if (const size_t n = inner_->receive(out, 0)) return n;
      if (std::chrono::steady_clock::now() >= until) {
        return inner_->receive(out, timeoutMs);  // charges the virtual wait
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  rpc::u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<SimTransport> inner_;
};

struct ServedCluster {
  SimHub hub;
  std::vector<std::unique_ptr<ThrottledSim>> tx;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  explicit ServedCluster(size_t n, OverlayNode::Options base = {}) {
    std::vector<rpc::wire::NodeEntry> entries;
    for (size_t i = 0; i < n; ++i) {
      tx.push_back(std::make_unique<ThrottledSim>(
          hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + i))));
      const NetAddr addr = tx.back()->localAddr();
      rpc::wire::NodeEntry e;
      e.id = overlay::nodeIdFor(addr);
      e.host = addr.host;
      e.port = addr.port;
      e.incarnation = 1;
      e.ringBase = e.id;
      entries.push_back(e);
    }
    for (size_t i = 0; i < n; ++i) {
      OverlayNode::Options opts = base;
      opts.name = "served-" + std::to_string(i);
      nodes.push_back(std::make_unique<OverlayNode>(opts, *tx[i]));
      nodes[i]->seedMembership(entries);
    }
  }

  ~ServedCluster() {
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }

  void serveAll() {
    for (auto& n : nodes) {
      OverlayNode* p = n.get();
      threads.emplace_back([this, p] { p->serve(stop); });
    }
  }

  void serveOne(OverlayNode* p) {
    threads.emplace_back([this, p] { p->serve(stop); });
  }

  [[nodiscard]] NetAddr addr(size_t i) const { return tx[i]->localAddr(); }
};

RoutedNetDht::Options clientOptions(const ServedCluster& c,
                                    size_t replication = 1) {
  RoutedNetDht::Options ro;
  ro.seed = c.addr(0);
  ro.replication = replication;
  return ro;
}

/// get() with churn tolerance: a topology change mid-read surfaces as a
/// timeout or a transient miss; retry until the wall deadline — only a
/// key still wrong then is actually lost (the run_cluster verify model).
bool eventuallyReads(RoutedNetDht& dht, const std::string& key,
                     const std::string& expect, int deadlineSeconds = 30) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadlineSeconds);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      auto got = dht.get(key);
      if (got.has_value() && *got == expect) return true;
    } catch (const DhtError&) {
      // timed out / exhausted attempts mid-churn: retryable
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(RoutedNetDht, BootstrapsFromOneSeedAndRoutesWarmOpsInOneHop) {
  ServedCluster c(3);
  c.serveAll();
  RoutedNetDht dht(clientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(/*deadlineMs=*/20000));
  EXPECT_EQ(dht.knownMembers(), 3u);
  EXPECT_GE(dht.routedStats().bootstraps, 1u);

  for (int i = 0; i < 25; ++i) {
    dht.put("key-" + std::to_string(i), "val-" + std::to_string(i));
  }
  for (int i = 0; i < 25; ++i) {
    auto got = dht.get("key-" + std::to_string(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "val-" + std::to_string(i));
  }

  // A stable view routes every op straight to its owner: exactly one hop
  // per lookup, zero redirects — the bench gate (≤ 1.2 warm mean hops)
  // with the slack removed.
  const auto& ds = dht.stats();
  EXPECT_EQ(ds.hops.load(), ds.lookups.load());
  EXPECT_EQ(dht.routedStats().redirectsFollowed, 0u);
  EXPECT_EQ(dht.routedStats().retriesAfterTimeout, 0u);

  // Batched reads keep the one-hop-per-key accounting.
  std::vector<Key> keys;
  for (int i = 0; i < 25; ++i) keys.push_back("key-" + std::to_string(i));
  auto outcomes = dht.multiGet(keys);
  ASSERT_EQ(outcomes.size(), keys.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].value.has_value()) << keys[i];
    EXPECT_EQ(*outcomes[i].value, "val-" + std::to_string(i));
  }
  EXPECT_EQ(ds.hops.load(), ds.lookups.load());
}

TEST(RoutedNetDht, FollowsRedirectsAcrossAliveJoin) {
  // Forwarding off: every stale-view op comes back as an explicit
  // Redirect, so this pins the client's follow-and-refresh path.
  OverlayNode::Options base;
  base.forwardData = false;
  ServedCluster c(2, base);
  c.serveAll();
  RoutedNetDht dht(clientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));
  EXPECT_EQ(dht.knownMembers(), 2u);

  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    keys.push_back("key-" + std::to_string(i));
    dht.put(keys.back(), "val-" + std::to_string(i));
  }

  // A third node joins the LIVE cluster (its own thread; the incumbents
  // keep serving). The client's view is now stale.
  auto joinTx = std::make_unique<ThrottledSim>(
      c.hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + 2)));
  OverlayNode::Options jo = base;
  jo.name = "joiner";
  auto joiner = std::make_unique<OverlayNode>(jo, *joinTx);
  ASSERT_TRUE(joiner->joinCluster(c.addr(0), /*deadlineMs=*/60000));
  c.serveOne(joiner.get());

  // Every preloaded record stays readable through the churn — redirects
  // and hint-triggered refreshes heal the view instead of failing ops.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(eventuallyReads(dht, keys[i], "val-" + std::to_string(i)))
        << keys[i];
  }
  EXPECT_EQ(dht.knownMembers(), 3u);  // the view healed to the new ring
  const auto rs = dht.routedStats();
  EXPECT_GE(rs.redirectsFollowed + rs.refreshes, 1u);

  // Writes after the heal land on the three-node ring and read back.
  dht.put("post-join", "fresh");
  EXPECT_TRUE(eventuallyReads(dht, "post-join", "fresh"));

  c.tx.push_back(std::move(joinTx));
  c.nodes.push_back(std::move(joiner));  // joined threads outlive the test body
}

TEST(RoutedNetDht, CrashFailoverPromotesReplicasBehindTheClient) {
  OverlayNode::Options base;
  base.replication = 2;  // overlay promotes one replica per key on crash
  ServedCluster c(3, base);
  c.serveAll();
  // replication=2 on the client too: every put fans a replica copy to the
  // key's ring successor, which is what the survivors promote from.
  RoutedNetDht dht(clientOptions(c, /*replication=*/2), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("key-" + std::to_string(i));
    dht.put(keys.back(), "val-" + std::to_string(i));
  }

  // Node 2 drops off the network without a goodbye. The survivors'
  // failure detector marks it Dead, reconcile promotes their replica
  // copies, and the client heals through timeouts + refreshes.
  c.hub.setOnline(static_cast<rpc::u16>(kBasePort + 2), false);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(eventuallyReads(dht, keys[i], "val-" + std::to_string(i)))
        << keys[i];
  }

  // Once the failure detector settles, a refresh drops the dead node
  // from the client's view. (Reads can heal earlier, off a view that
  // still lists it as Suspect, so poll with forced refreshes.)
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dht.knownMembers() != 2 &&
         std::chrono::steady_clock::now() < deadline) {
    dht.bootstrap(/*deadlineMs=*/2000);  // acts as a forced refresh
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dht.knownMembers(), 2u);  // the dead node fell out of the view
}

}  // namespace
}  // namespace lht::dht
