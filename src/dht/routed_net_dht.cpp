#include "dht/routed_net_dht.h"

#include <algorithm>
#include <numeric>

#include "common/types.h"

namespace lht::dht {

using common::u64;
using namespace rpc::wire;  // NOLINT — this file IS the protocol client

// --- Connection pool --------------------------------------------------------

class RoutedNetDht::Lease {
 public:
  explicit Lease(const RoutedNetDht& dht) : dht_(dht) {
    std::lock_guard<std::mutex> lock(dht_.poolMutex_);
    if (dht_.freeConns_.empty()) {
      auto conn = std::make_unique<Conn>();
      conn->transport = dht_.makeTransport_();
      conn->rpc = std::make_unique<rpc::RpcClient>(*conn->transport,
                                                   dht_.opts_.rpc);
      dht_.conns_.push_back(std::move(conn));
      idx_ = dht_.conns_.size() - 1;
    } else {
      idx_ = dht_.freeConns_.back();
      dht_.freeConns_.pop_back();
    }
    // Resolve the Conn pointer while still holding poolMutex_: a
    // concurrent Lease's push_back may reallocate conns_'s buffer, so
    // rpc() must never re-index it unlocked. The unique_ptr pointee is
    // stable across reallocation, and this slot is ours until ~Lease.
    conn_ = dht_.conns_[idx_].get();
  }
  ~Lease() {
    std::lock_guard<std::mutex> lock(dht_.poolMutex_);
    dht_.freeConns_.push_back(idx_);
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  [[nodiscard]] rpc::RpcClient& rpc() { return *conn_->rpc; }

 private:
  const RoutedNetDht& dht_;
  size_t idx_;
  Conn* conn_;
};

// --- Construction -----------------------------------------------------------

namespace {

/// A static node list as a membership table: one Alive entry per address,
/// seeded by its address-derived id — the same way overlay nodes seed
/// their own entries, so the ring depends on the address set alone.
std::vector<NodeEntry> frozenEntries(const std::vector<rpc::NetAddr>& nodes) {
  std::vector<NodeEntry> entries;
  entries.reserve(nodes.size());
  for (const rpc::NetAddr& addr : nodes) {
    NodeEntry e;
    e.id = overlay::nodeIdFor(addr);
    e.host = addr.host;
    e.port = addr.port;
    e.incarnation = 1;
    e.ringBase = e.id;
    entries.push_back(e);
  }
  return entries;
}

}  // namespace

RoutedNetDht::View::View(const std::vector<NodeEntry>& entries,
                         size_t virtualNodes)
    : ring(entries, virtualNodes) {
  for (const NodeEntry& e : entries) {
    if (e.state > static_cast<common::u8>(overlay::NodeState::Suspect)) {
      continue;
    }
    addrs.emplace(e.id, overlay::addrOf(e));
    pullTargets.push_back(overlay::addrOf(e));
  }
}

RoutedNetDht::RoutedNetDht(Options options, TransportFactory makeTransport)
    : opts_(std::move(options)), makeTransport_(std::move(makeTransport)) {
  common::checkInvariant(
      opts_.nodes.empty() != (opts_.seed == rpc::NetAddr{}),
      "RoutedNetDht: set exactly one of nodes / seed");
  common::checkInvariant(opts_.replication >= 1,
                         "RoutedNetDht: replication >= 1");
  common::checkInvariant(opts_.maxAttempts >= 1,
                         "RoutedNetDht: maxAttempts >= 1");
  common::checkInvariant(opts_.maxKeysPerDatagram >= 1,
                         "RoutedNetDht: maxKeysPerDatagram >= 1");
  if (frozen()) {
    view_ = std::make_shared<const View>(frozenEntries(opts_.nodes),
                                         opts_.virtualNodes);
    common::checkInvariant(view_->addrs.size() == opts_.nodes.size(),
                           "RoutedNetDht: duplicate node address");
  }
}

RoutedNetDht::~RoutedNetDht() = default;

// --- View maintenance -------------------------------------------------------

std::shared_ptr<const RoutedNetDht::View> RoutedNetDht::view() const {
  std::lock_guard<std::mutex> lock(viewMutex_);
  return view_;
}

std::shared_ptr<const RoutedNetDht::View> RoutedNetDht::requireView() const {
  auto v = view();
  if (!v) {
    throw DhtTimeoutError(
        "RoutedNetDht: not bootstrapped (seed never answered)");
  }
  return v;
}

void RoutedNetDht::noteHint(const std::optional<GossipHint>& hint) {
  if (!hint || hint->senderId == 0) return;
  std::lock_guard<std::mutex> lock(viewMutex_);
  auto it = hintVersions_.find(hint->senderId);
  if (it == hintVersions_.end()) {
    hintVersions_.emplace(hint->senderId, hint->version);
    return;
  }
  if (hint->version > it->second) {
    // Someone's table moved since we last looked: our ring may be stale.
    it->second = hint->version;
    refreshWanted_ = true;
    std::lock_guard<std::mutex> slock(statsMutex_);
    routedStats_.staleHints += 1;
  }
}

bool RoutedNetDht::pullView(rpc::RpcClient& cli, const rpc::NetAddr& from) {
  // senderId 0 marks a client pull: the node replies with its table
  // without trying to merge anything from us.
  auto r = cli.callOne(from, GossipSyncReq{});
  if (r.timedOut || r.status != Status::Ok) return false;
  const auto* rep = std::get_if<GossipSyncRep>(&r.body);
  if (rep == nullptr || rep->entries.empty()) return false;  // not overlay

  auto v = std::make_shared<const View>(rep->entries, opts_.virtualNodes);
  if (v->addrs.empty()) return false;
  {
    std::lock_guard<std::mutex> lock(viewMutex_);
    const bool first = view_ == nullptr;
    view_ = std::move(v);
    refreshWanted_ = false;
    std::lock_guard<std::mutex> slock(statsMutex_);
    if (first) {
      routedStats_.bootstraps += 1;
    } else {
      routedStats_.refreshes += 1;
    }
  }
  noteHint(r.hint);
  return true;
}

bool RoutedNetDht::refreshView(rpc::RpcClient& cli) {
  if (frozen()) return false;
  std::vector<rpc::NetAddr> targets;
  if (auto v = view()) targets = v->pullTargets;
  targets.push_back(opts_.seed);
  for (const rpc::NetAddr& t : targets) {
    if (pullView(cli, t)) return true;
  }
  return false;
}

bool RoutedNetDht::bootstrap(u64 deadlineMs) {
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  // Frozen view: ping every still-silent member concurrently, so a round
  // costs at most one request deadline however many members are down —
  // the overshoot past deadlineMs is one request deadline, not one per
  // silent member.
  std::vector<rpc::NetAddr> silent = opts_.nodes;
  auto pingRound = [&] {
    std::vector<std::pair<rpc::NetAddr, rpc::RpcClient::Token>> round;
    round.reserve(silent.size());
    for (const rpc::NetAddr& a : silent) {
      round.emplace_back(a, cli.call(a, PingReq{}));
    }
    cli.settle();
    silent.clear();
    for (const auto& [a, t] : round) {
      if (!cli.take(t).ok()) silent.push_back(a);
    }
    return silent.empty();
  };
  const u64 start = cli.transport().nowMs();
  while (true) {
    if (frozen() ? pingRound() : pullView(cli, opts_.seed)) return true;
    if (cli.transport().nowMs() - start >= deadlineMs) return false;
  }
}

size_t RoutedNetDht::knownMembers() const {
  auto v = view();
  return v ? v->addrs.size() : 0;
}

RoutedNetDht::RoutedStats RoutedNetDht::routedStats() const {
  RoutedStats s;
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    s = routedStats_;
  }
  std::lock_guard<std::mutex> lock(poolMutex_);
  for (const auto& conn : conns_) {
    const auto& t = conn->transport->stats();
    s.datagramsSent += t.datagramsSent;
    s.datagramsReceived += t.datagramsReceived;
    s.bytesSent += t.bytesSent;
    s.bytesReceived += t.bytesReceived;
    const auto& r = conn->rpc->stats();
    s.requestsStarted += r.requestsStarted;
    s.retransmits += r.retransmits;
    s.timeouts += r.timeouts;
  }
  s.connections = conns_.size();
  return s;
}

// --- Routed single-key calls ------------------------------------------------

namespace {

void checkStatus(const rpc::RpcClient::Result& r, const char* op,
                 const Key& key) {
  if (r.timedOut) {
    throw DhtTimeoutError(std::string("RoutedNetDht::") + op +
                          ": rpc timeout on \"" + key + "\"");
  }
  if (r.status != Status::Ok) {
    throw DhtError(std::string("RoutedNetDht::") + op + ": status " +
                   statusName(r.status) + " on \"" + key + "\"");
  }
}

}  // namespace

rpc::RpcClient::Result RoutedNetDht::callRouted(rpc::RpcClient& cli,
                                                const Key& key,
                                                const RequestBody& body) {
  std::shared_ptr<const View> v;
  bool wantRefresh;
  {
    std::lock_guard<std::mutex> lock(viewMutex_);
    wantRefresh = refreshWanted_;
    v = view_;
  }
  if (wantRefresh) {
    refreshView(cli);
    v = view();
  }
  rpc::RpcClient::Result last;
  last.timedOut = true;
  for (size_t attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
    if (!v) {
      if (!refreshView(cli)) break;
      v = requireView();
    }
    const u64 owner = v->ring.owner(key);
    auto addrIt = v->addrs.find(owner);
    if (owner == 0 || addrIt == v->addrs.end()) {
      if (!refreshView(cli)) break;
      v = requireView();
      continue;
    }
    // The op's first route is charged by the caller; only extra rounds
    // (redirects, refresh-retries after a timeout) add hops — so warm
    // mean hops sits at 1.0 and every topology stumble shows up as the
    // excess.
    if (attempt > 0) stats_.hops += 1;
    last = cli.callOne(addrIt->second, body);
    noteHint(last.hint);
    // A frozen view has nowhere else to route: one deadline, then fail.
    if (frozen()) return last;
    if (last.timedOut) {
      // The owner may have crashed; a fresher view routes to whoever the
      // survivors promoted for its range.
      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        routedStats_.retriesAfterTimeout += 1;
      }
      refreshView(cli);
      v = view();
      continue;
    }
    if (last.status == Status::Redirect) {
      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        routedStats_.redirectsFollowed += 1;
      }
      // The fresh owner itself is the best node to pull the table from.
      const auto* red = std::get_if<RedirectRep>(&last.body);
      const bool pulled =
          red != nullptr && red->host != 0 &&
          pullView(cli, rpc::NetAddr{red->host, red->port});
      if (!pulled) refreshView(cli);
      v = view();
      continue;
    }
    return last;
  }
  return last;  // timed out / redirect-looped: caller's checkStatus throws
}

// --- Replication ------------------------------------------------------------

size_t RoutedNetDht::replicaFanout() const {
  auto v = view();
  const size_t members = v ? v->ring.memberCount() : opts_.replication;
  return std::min(opts_.replication, std::max<size_t>(members, 1)) - 1;
}

void RoutedNetDht::replicate(rpc::RpcClient& cli, const Key& key,
                             const std::optional<Value>& value, u64 version) {
  const size_t fanout = replicaFanout();
  if (fanout == 0) return;
  auto v = requireView();
  const auto holders = v->ring.holders(key, fanout);
  std::vector<rpc::RpcClient::Token> tokens;
  for (size_t i = 1; i < holders.size(); ++i) {
    auto it = v->addrs.find(holders[i]);
    if (it == v->addrs.end()) continue;
    if (value.has_value()) {
      tokens.push_back(
          cli.call(it->second, ReplicaPutReq{key, *value, version}));
    } else {
      tokens.push_back(cli.call(it->second, ReplicaRemoveReq{key}));
    }
  }
  cli.settle();
  // Best-effort: the primary already committed. A silent holder shows up
  // in routedStats().timeouts; a later read of that replica misses
  // (stale), which failover treats as any other replica miss.
  for (auto t : tokens) (void)cli.take(t);
}

// --- Single-key ops ---------------------------------------------------------

void RoutedNetDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.lookups += 1;
  stats_.puts += 1;
  stats_.hops += 1;
  stats_.valueBytesMoved += value.size();
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, PutReq{key, value});
  checkStatus(r, "put", key);
  replicate(lease.rpc(), key, value, std::get<PutRep>(r.body).version);
}

std::optional<Value> RoutedNetDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, GetReq{key});
  checkStatus(r, "get", key);
  auto& rep = std::get<GetRep>(r.body);
  if (!rep.present) return std::nullopt;
  stats_.valueBytesMoved += rep.value.size();
  return std::move(rep.value);
}

bool RoutedNetDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.lookups += 1;
  stats_.removes += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, RemoveReq{key});
  checkStatus(r, "remove", key);
  const bool existed = std::get<RemoveRep>(r.body).existed;
  if (existed) replicate(lease.rpc(), key, std::nullopt, 0);
  return existed;
}

bool RoutedNetDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.lookups += 1;
  stats_.applies += 1;
  stats_.hops += 1;
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();

  auto g = callRouted(cli, key, GetReq{key});
  checkStatus(g, "apply", key);
  auto& snap = std::get<GetRep>(g.body);
  bool present = snap.present;
  u64 version = snap.version;
  Value current = std::move(snap.value);

  for (size_t attempt = 0; attempt < opts_.casRetries; ++attempt) {
    std::optional<Value> v =
        present ? std::optional<Value>(current) : std::nullopt;
    const bool existedBefore = present;
    fn(v);
    if (!v.has_value() && !present) return false;        // absent -> absent
    if (v.has_value() && present && *v == current) return true;  // no change
    if (v.has_value()) stats_.valueBytesMoved += v->size();

    CasReq cas{key, version, v.has_value(), v.value_or(Value{})};
    auto r = callRouted(cli, key, cas);
    checkStatus(r, "apply", key);
    auto& rep = std::get<CasRep>(r.body);
    if (rep.applied) {
      replicate(cli, key, v, rep.currentVersion);
      return existedBefore;
    }
    // Conflict: the reply carries the fresh state — retry the mutator
    // against it without another GET round.
    present = rep.currentPresent;
    version = rep.currentVersion;
    current = std::move(rep.currentValue);
  }
  throw DhtError("RoutedNetDht::apply: CAS contention exhausted " +
                 std::to_string(opts_.casRetries) + " attempts on \"" + key +
                 "\"");
}

// --- Batch rounds -----------------------------------------------------------

namespace {

/// One outgoing batch datagram: entry positions packed for one owner id.
struct OwnerChunk {
  u64 owner = 0;
  std::vector<size_t> entries;
};

/// Groups entry positions by owner, opening a new chunk whenever one hits
/// the key-count or byte cap. `byteCost(i)` approximates entry i's wire
/// footprint.
template <typename OwnerOf, typename ByteCost>
std::vector<OwnerChunk> packByOwner(const std::vector<size_t>& items,
                                    size_t maxKeys, size_t maxBytes,
                                    OwnerOf ownerOf, ByteCost byteCost) {
  std::vector<OwnerChunk> chunks;
  std::unordered_map<u64, size_t> open;  // owner -> open chunk index
  std::vector<size_t> chunkBytes;
  for (size_t i : items) {
    const u64 owner = ownerOf(i);
    const size_t cost = byteCost(i);
    auto it = open.find(owner);
    size_t c;
    if (it == open.end() || chunks[it->second].entries.size() >= maxKeys ||
        chunkBytes[it->second] + cost > maxBytes) {
      c = chunks.size();
      chunks.push_back(OwnerChunk{owner, {}});
      chunkBytes.push_back(0);
      open[owner] = c;
    } else {
      c = it->second;
    }
    chunks[c].entries.push_back(i);
    chunkBytes[c] += cost;
  }
  return chunks;
}

}  // namespace

std::vector<RoutedNetDht::Fetched> RoutedNetDht::batchGet(
    rpc::RpcClient& cli, const std::vector<Key>& keys, const char* op) {
  const std::string prefix = std::string("RoutedNetDht::") + op + ": ";
  std::vector<Fetched> out(keys.size());
  std::vector<size_t> regroup(keys.size());  // entries to pack by owner
  std::iota(regroup.begin(), regroup.end(), size_t{0});
  std::vector<OwnerChunk> halves;  // halved too-large chunks, resent as is

  for (size_t round = 0; round < opts_.maxBatchRounds &&
                         !(regroup.empty() && halves.empty());
       ++round) {
    auto v = view();
    if (!v) {
      if (!refreshView(cli)) break;
      v = requireView();
    }
    auto chunks = packByOwner(
        regroup, opts_.maxKeysPerDatagram, opts_.maxBytesPerDatagram,
        [&](size_t i) { return v->ring.owner(keys[i]); },
        [&](size_t i) { return keys[i].size() + 8; });
    // Regrouped entries after the first round are extra routing rounds
    // and cost a hop each; a resent half is the same route, not a new one.
    const size_t regrouped = chunks.size();
    chunks.insert(chunks.end(), std::make_move_iterator(halves.begin()),
                  std::make_move_iterator(halves.end()));
    regroup.clear();
    halves.clear();

    std::vector<rpc::RpcClient::Token> tokens(chunks.size(), 0);
    std::vector<bool> sent(chunks.size(), false);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto it = v->addrs.find(chunks[ci].owner);
      if (it == v->addrs.end()) continue;  // stale view: retry next round
      MultiGetReq req;
      req.entries.reserve(chunks[ci].entries.size());
      for (size_t i : chunks[ci].entries) req.entries.push_back(GetReq{keys[i]});
      tokens[ci] = cli.call(it->second, std::move(req));
      sent[ci] = true;
      if (round > 0 && ci < regrouped) {
        stats_.hops += chunks[ci].entries.size();
      }
    }
    cli.settle();

    bool wantRefresh = false;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      const std::vector<size_t>& entries = chunks[ci].entries;
      if (!sent[ci]) {
        regroup.insert(regroup.end(), entries.begin(), entries.end());
        wantRefresh = true;
        continue;
      }
      auto r = cli.take(tokens[ci]);
      noteHint(r.hint);
      if (!r.timedOut && r.status == Status::TooLarge && entries.size() > 1) {
        // The answers would not fit one datagram: resend each half to the
        // same owner next round. A lone key too large stays an error.
        const auto mid = entries.begin() + entries.size() / 2;
        halves.push_back(OwnerChunk{chunks[ci].owner, {entries.begin(), mid}});
        halves.push_back(OwnerChunk{chunks[ci].owner, {mid, entries.end()}});
        continue;
      }
      if (!frozen() && (r.timedOut || r.status == Status::Redirect)) {
        // Stale grouping (join/leave in flight) or a dead owner: refresh
        // and regroup just these entries.
        regroup.insert(regroup.end(), entries.begin(), entries.end());
        wantRefresh = true;
        if (r.status == Status::Redirect) {
          std::lock_guard<std::mutex> lock(statsMutex_);
          routedStats_.redirectsFollowed += 1;
        }
        continue;
      }
      if (r.timedOut || r.status != Status::Ok) {
        const std::string err =
            r.timedOut ? prefix + "rpc timeout"
                       : prefix + "status " + statusName(r.status);
        for (size_t i : entries) out[i].error = err;
        continue;
      }
      auto& rep = std::get<MultiGetRep>(r.body);
      common::checkInvariant(rep.entries.size() == entries.size(),
                             "RoutedNetDht::batchGet: entry count mismatch");
      for (size_t j = 0; j < entries.size(); ++j) {
        out[entries[j]].rep = std::move(rep.entries[j]);
      }
    }
    if (wantRefresh && !regroup.empty()) refreshView(cli);
  }
  for (const OwnerChunk& h : halves) {
    regroup.insert(regroup.end(), h.entries.begin(), h.entries.end());
  }
  for (size_t i : regroup) out[i].error = prefix + "rpc timeout";
  return out;
}

std::vector<GetOutcome> RoutedNetDht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  obs::SpanScope span("dht.multiGet", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += keys.size();
  stats_.gets += keys.size();
  stats_.hops += keys.size();

  Lease lease(*this);
  auto fetched = batchGet(lease.rpc(), keys, "multiGet");
  std::vector<GetOutcome> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Fetched& f = fetched[i];
    if (!f.error.empty()) {
      out[i].error = std::move(f.error);
      continue;
    }
    out[i].ok = true;
    if (f.rep.present) {
      stats_.valueBytesMoved += f.rep.value.size();
      out[i].value = std::move(f.rep.value);
    }
  }
  return out;
}

std::vector<ApplyOutcome> RoutedNetDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  obs::SpanScope span("dht.multiApply", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += reqs.size();
  stats_.applies += reqs.size();
  stats_.hops += reqs.size();

  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  std::vector<ApplyOutcome> out(reqs.size());

  // Per-entry CAS state, seeded by the snapshot and refreshed by conflict
  // replies.
  struct State {
    GetRep snap;
    bool existedAtFirstCas = false;
  };
  std::vector<State> state(reqs.size());
  std::vector<size_t> active;
  {
    std::vector<Key> keys;
    keys.reserve(reqs.size());
    for (const ApplyRequest& r : reqs) keys.push_back(r.key);
    auto fetched = batchGet(cli, keys, "multiApply snapshot");
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!fetched[i].error.empty()) {
        out[i].error = std::move(fetched[i].error);
        continue;
      }
      state[i].snap = std::move(fetched[i].rep);
      active.push_back(i);
    }
  }

  // CAS rounds: run mutators locally, batch the writes, retry conflicts.
  // On a seeded view a Redirect means the CAS did NOT execute, so
  // retrying it after a view refresh is safe.
  struct Committed {
    Key key;
    std::optional<Value> value;  // nullopt = erased
    u64 version = 0;
  };
  std::vector<Committed> toReplicate;
  for (size_t round = 0; round < opts_.casRetries && !active.empty(); ++round) {
    std::vector<size_t> casEntries;  // indices into reqs
    std::vector<CasReq> casReqs;
    for (size_t i : active) {
      const GetRep& s = state[i].snap;
      std::optional<Value> v =
          s.present ? std::optional<Value>(s.value) : std::nullopt;
      reqs[i].fn(v);
      if (!v.has_value() && !s.present) {  // absent -> absent: no-op
        out[i].ok = true;
        out[i].existed = false;
        continue;
      }
      if (v.has_value() && s.present && *v == s.value) {  // no change
        out[i].ok = true;
        out[i].existed = true;
        continue;
      }
      if (v.has_value()) stats_.valueBytesMoved += v->size();
      state[i].existedAtFirstCas = s.present;
      casEntries.push_back(i);
      casReqs.push_back(
          CasReq{reqs[i].key, s.version, v.has_value(), v.value_or(Value{})});
    }
    active.clear();
    if (casEntries.empty()) break;

    auto v = requireView();
    std::vector<size_t> positions(casEntries.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    const auto chunks = packByOwner(
        positions, opts_.maxKeysPerDatagram, opts_.maxBytesPerDatagram,
        [&](size_t j) { return v->ring.owner(casReqs[j].key); },
        [&](size_t j) {
          return casReqs[j].key.size() + casReqs[j].value.size() + 16;
        });
    std::vector<rpc::RpcClient::Token> tokens(chunks.size(), 0);
    std::vector<bool> sent(chunks.size(), false);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto it = v->addrs.find(chunks[ci].owner);
      if (it == v->addrs.end()) continue;
      MultiCasReq req;
      for (size_t j : chunks[ci].entries) req.entries.push_back(casReqs[j]);
      tokens[ci] = cli.call(it->second, std::move(req));
      sent[ci] = true;
    }
    cli.settle();
    bool wantRefresh = false;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      if (!sent[ci]) {
        for (size_t j : chunks[ci].entries) active.push_back(casEntries[j]);
        wantRefresh = true;
        continue;
      }
      auto r = cli.take(tokens[ci]);
      noteHint(r.hint);
      if (!frozen() && !r.timedOut && r.status == Status::Redirect) {
        for (size_t j : chunks[ci].entries) active.push_back(casEntries[j]);
        wantRefresh = true;
        continue;
      }
      if (r.timedOut || r.status != Status::Ok) {
        // Lost reply: the CAS may or may not have executed — exactly the
        // documented lost-reply semantics for a failed apply entry.
        for (size_t j : chunks[ci].entries) {
          out[casEntries[j]].error = "RoutedNetDht::multiApply: cas rpc timeout";
        }
        continue;
      }
      auto& rep = std::get<MultiCasRep>(r.body);
      for (size_t k = 0; k < rep.entries.size(); ++k) {
        const size_t j = chunks[ci].entries[k];
        const size_t i = casEntries[j];
        CasRep& cr = rep.entries[k];
        if (cr.applied) {
          out[i].ok = true;
          out[i].existed = state[i].existedAtFirstCas;
          toReplicate.push_back(Committed{
              reqs[i].key,
              casReqs[j].present ? std::optional<Value>(casReqs[j].value)
                                 : std::nullopt,
              cr.currentVersion});
        } else {
          state[i].snap =
              GetRep{cr.currentPresent, cr.currentVersion,
                     std::move(cr.currentValue)};
          active.push_back(i);  // conflict: retry next round
        }
      }
    }
    if (wantRefresh && !active.empty()) refreshView(cli);
  }
  for (size_t i : active) {
    out[i].error = "RoutedNetDht::multiApply: CAS contention exhausted";
  }
  for (const Committed& c : toReplicate) {
    replicate(cli, c.key, c.value, c.version);
  }
  return out;
}

// --- Unrouted / admin -------------------------------------------------------

void RoutedNetDht::storeDirect(const Key& key, Value value) {
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, PutReq{key, value});
  checkStatus(r, "storeDirect", key);
  replicate(lease.rpc(), key, value, std::get<PutRep>(r.body).version);
}

std::optional<Value> RoutedNetDht::getReplica(const Key& key,
                                              size_t replicaIndex) {
  RoutedOpScope scope(*this, "dht.get_replica", key);
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  const size_t fanout = replicaFanout();
  if (replicaIndex >= fanout) {
    throw DhtError("RoutedNetDht::getReplica: no replica " +
                   std::to_string(replicaIndex) + " (fanout " +
                   std::to_string(fanout) + ")");
  }
  auto v = requireView();
  const auto holders = v->ring.holders(key, fanout);
  auto it = holders.size() > replicaIndex + 1
                ? v->addrs.find(holders[replicaIndex + 1])
                : v->addrs.end();
  if (it == v->addrs.end()) {
    throw DhtPeerDownError("RoutedNetDht::getReplica: holder unknown");
  }
  Lease lease(*this);
  auto r = lease.rpc().callOne(it->second, ReplicaGetReq{key});
  noteHint(r.hint);
  if (r.timedOut) {
    // A holder that stays silent through every retransmit is down, as far
    // as this client can tell — that is the failover decorators' cue.
    throw DhtPeerDownError("RoutedNetDht::getReplica: holder " +
                           it->second.str() + " unresponsive for \"" + key +
                           "\"");
  }
  checkStatus(r, "getReplica", key);
  auto& rep = std::get<GetRep>(r.body);
  if (!rep.present) return std::nullopt;
  stats_.valueBytesMoved += rep.value.size();
  return std::move(rep.value);
}

std::vector<rpc::RpcClient::Result> RoutedNetDht::fanOut(
    const RequestBody& body) const {
  auto v = requireView();
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  std::vector<rpc::RpcClient::Token> tokens;
  tokens.reserve(v->addrs.size());
  for (const auto& [id, addr] : v->addrs) {
    tokens.push_back(cli.call(addr, body));
  }
  cli.settle();
  std::vector<rpc::RpcClient::Result> out;
  out.reserve(tokens.size());
  for (auto t : tokens) out.push_back(cli.take(t));
  return out;
}

void RoutedNetDht::syncStorage() { (void)fanOut(SyncReq{}); }

void RoutedNetDht::compactStorage() { (void)fanOut(CompactReq{}); }

size_t RoutedNetDht::size() const {
  size_t total = 0;
  for (const auto& r : fanOut(SizeReq{})) {
    if (r.timedOut) {
      throw DhtTimeoutError("RoutedNetDht::size: a node did not answer");
    }
    total += static_cast<size_t>(std::get<SizeRep>(r.body).primaryKeys);
  }
  return total;
}

}  // namespace lht::dht
