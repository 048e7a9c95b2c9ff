// The three workloads: inputs, timed rounds, checks and metrics.
//
// A run is set-up (cluster start, preload, warm-up round), then timed
// rounds of a fixed number of operations until --seconds have passed,
// then the end-of-workload checks. Every operation's output is compared
// with an ordered map kept by the benchmark (the oracle).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "common/random.h"
#include "dht/chord.h"
#include "dht/routed_net_dht.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "rpc/udp_transport.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace lhtbench {
namespace {

using lht::common::Pcg32;
using lht::core::LhtIndex;
using lht::index::Record;
using lht::workload::Distribution;
using Op = lht::workload::Operation;
using Kind = Op::Kind;
constexpr size_t kKinds = 6;

/// One workload's input make-up. Weights are per mille, in Kind order.
struct Spec {
  const char* name;
  std::array<u32, kKinds> mix;
  Distribution dist;
  size_t preload;        ///< records bulk-loaded during set-up
  size_t roundOps;       ///< operations per round
  size_t warmupRounds;   ///< untimed rounds that end the set-up
  /// The count metrics cover this many first timed rounds: fixed work,
  /// so they repeat exactly for a seed however long the run.
  size_t countRounds;
  bool freshPerRound;    ///< every round starts from a new, near-empty index
  bool cluster;          ///< RoutedNetDht over lht_noded daemons
  u32 rangeMinRecords;   ///< a range spans this many oracle records...
  u32 rangeMaxRecords;   ///< ...up to this many
  /// Theorem 3 (min/max = one DHT-lookup) assumes the extreme leaves hold
  /// records. Gaussian keys leave the outermost leaves empty, and then the
  /// operation walks inward one lookup per empty leaf.
  bool minMaxOneLookup;
  /// The end-of-workload full-range scan. Off on the cluster: see the
  /// FOUND line on RoutedNetDht::multiGet in CHANGES.md.
  bool fullScan;
};

//                       ins erase find range min  max
const Spec kSpecs[] = {
    {"local-read", {75, 75, 700, 100, 25, 25}, Distribution::Uniform, 100000, 20000, 1, 4,
     false, false, 50, 400, true, true},
    {"local-ingest", {600, 200, 100, 50, 25, 25}, Distribution::Gaussian, 64, 16000, 4, 1,
     true, false, 20, 200, false, true},
    {"cluster-mixed", {65, 65, 750, 70, 25, 25}, Distribution::Uniform, 20000, 18000, 1, 3,
     false, true, 50, 400, true, false},
};

constexpr size_t kClusterNodes = 3;
constexpr size_t kClusterReplication = 2;
constexpr size_t kTraceSpanCapacity = 100000;

/// The benchmark's own ordered map of every record the index should hold,
/// plus a dense pool of its keys for uniform sampling.
class Oracle {
 public:
  [[nodiscard]] const std::map<double, std::string>& map() const { return map_; }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] bool contains(double k) const { return map_.count(k) != 0; }

  void insert(double k, const std::string& payload) {
    map_.emplace(k, payload);
    pos_.emplace(k, pool_.size());
    pool_.push_back(k);
  }
  bool erase(double k) {
    auto it = pos_.find(k);
    if (it == pos_.end()) return false;
    const size_t i = it->second;
    pos_[pool_.back()] = i;
    pool_[i] = pool_.back();
    pool_.pop_back();
    pos_.erase(k);
    map_.erase(k);
    return true;
  }
  double sample(Pcg32& rng) const {
    return pool_[rng.below(static_cast<u32>(pool_.size()))];
  }

 private:
  std::map<double, std::string> map_;
  std::vector<double> pool_;
  std::unordered_map<double, size_t> pos_;
};

/// Deterministic operation stream: the same seed and the same oracle
/// state give the same operations. Keys come from the library's own
/// generator (paper Sec. 9.1: U[0, 1), or N(1/2, 1/6) redrawn into
/// [0, 1)); this class adds the choices that need the oracle.
class OpGen {
 public:
  OpGen(const Spec& spec, u64 seed)
      : spec_(&spec), keys_(spec.dist, seed), rng_(seed, 0x5eed) {}

  double freshKey(const Oracle& o) {
    for (;;) {
      const double k = keys_.next();
      if (!o.contains(k)) return k;
    }
  }

  std::string payload() {
    char buf[24];
    std::snprintf(buf, sizeof buf, "v%015llx",
                  static_cast<unsigned long long>(serial_++));
    return buf;
  }

  Op next(const Oracle& o) {
    Op op;
    u32 r = rng_.below(1000);
    size_t t = 0;
    while (t + 1 < kKinds && r >= spec_->mix[t]) r -= spec_->mix[t++];
    op.kind = static_cast<Kind>(t);
    switch (op.kind) {
      case Kind::Find:
        op.key = !o.empty() && rng_.below(10) < 8 ? o.sample(rng_) : keys_.next();
        break;
      case Kind::Insert:
        op.key = freshKey(o);
        op.payload = payload();
        break;
      case Kind::Erase:
        op.key = o.empty() ? keys_.next() : o.sample(rng_);
        break;
      case Kind::Range: {
        op.key = o.empty() ? keys_.next() : o.sample(rng_);
        const u32 span = spec_->rangeMinRecords +
                         rng_.below(spec_->rangeMaxRecords - spec_->rangeMinRecords + 1);
        auto it = o.map().lower_bound(op.key);
        for (u32 i = 0; i < span && it != o.map().end(); ++i) ++it;
        op.hi = it == o.map().end() ? 1.0 : it->first;
        break;
      }
      case Kind::Min:
      case Kind::Max:
        break;
    }
    return op;
  }

  std::vector<Record> preload(Oracle& o, size_t n) {
    std::vector<Record> recs;
    recs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Record r{freshKey(o), payload()};
      o.insert(r.key, r.payload);
      recs.push_back(std::move(r));
    }
    return recs;
  }

 private:
  const Spec* spec_;
  lht::workload::KeyGenerator keys_;
  Pcg32 rng_;
  u64 serial_ = 0;
};

void check(bool ok, const char* what) {
  if (!ok) throw CheckFailure(what);
}

/// Builds the message only when the check fails.
template <std::invocable Msg>
void check(bool ok, Msg&& what) {
  if (!ok) throw CheckFailure(what());
}

std::string keyStr(double k) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", k);
  return buf;
}

/// Index + substrate for one workload. Local workloads own a SimNetwork
/// and a ChordDht; the cluster workload owns a RoutedNetDht client.
struct Stack {
  std::unique_ptr<lht::net::SimNetwork> net;
  std::unique_ptr<lht::dht::ChordDht> chord;
  std::unique_ptr<lht::dht::RoutedNetDht> routed;
  std::unique_ptr<TracingDht> traced;
  std::unique_ptr<LhtIndex> index;

  [[nodiscard]] lht::dht::Dht& substrate() const {
    return chord ? static_cast<lht::dht::Dht&>(*chord) : *routed;
  }
};

u64 meterLookups(const LhtIndex& idx) {
  const auto& m = idx.meters();
  return m.insertion.dhtLookups + m.maintenance.dhtLookups + m.query.dhtLookups;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// Time metrics are taken per timed round, the median over the rounds is
// taken, and it is scaled by the run's host-speed calibration. Every round is the same amount of work, so its figures are
// samples of one distribution, and a burst of host slowdown (one to three
// seconds on the reference host) moves only the rounds it covers. A round
// holds over 1000 samples of each reported latency on average, which
// leaves about 10 beyond its 99th percentile.

/// The q-quantile of `ns`, in nanoseconds (reorders `ns`).
double quantileNs(std::vector<u32>& ns, double q) {
  if (ns.empty()) return 0;
  const size_t i =
      std::min(ns.size() - 1, static_cast<size_t>(q * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(i), ns.end());
  return ns[i];
}

/// Gauges the host's speed. A shared host can run the same code several
/// times slower for minutes at a time (other tenants on the cores and the
/// shared cache), and per-round medians do not remove a state that lasts
/// the whole run. So every round also times fixed slices of work that
/// calls no library code but resembles the index's own hot path: copy a
/// stored 2.5 KB bucket out of a 10 MB pool, decode its 100 records into
/// heap strings, sort them. In a run on the reference host in which the
/// index sped up 3.7x, a pure ALU loop moved by 7% and a pointer chase over
/// an ordered map by 25%; this kernel followed the index. A run's time
/// metrics are scaled by kRefSliceNs over the median slice time of its
/// timed rounds, which reads them as if a slice had taken kRefSliceNs.
/// Scaling each round by its own slices was steadier on the in-process
/// workloads but noisier on the cluster, where the slices run beside the
/// daemons. The slices' inputs do not depend on --seed.
class Calibrator {
 public:
  static constexpr double kRefSliceNs = 1e6;

  Calibrator() : rng_(0xca11b, 0x7e57) {
    buckets_.reserve(kBuckets);
    char payload[24];
    for (size_t b = 0; b < kBuckets; ++b) {
      std::string raw;
      for (size_t r = 0; r < kRecords; ++r) {
        const double k = rng_.nextDouble();
        raw.append(reinterpret_cast<const char*>(&k), sizeof k);
        std::snprintf(payload, sizeof payload, "v%015zx", b * kRecords + r);
        raw.push_back(16);
        raw.append(payload, 16);
      }
      buckets_.push_back(std::move(raw));
    }
  }

  /// Runs one slice; returns its wall time in nanoseconds.
  u64 slice() {
    const u64 t0 = nowNs();
    for (size_t p = 0; p < kProbes; ++p) {
      const std::string raw = buckets_[rng_.below(static_cast<u32>(kBuckets))];
      std::vector<std::pair<double, std::string>> recs;
      for (size_t i = 0; i < raw.size();) {
        double k = 0;
        std::memcpy(&k, raw.data() + i, sizeof k);
        const auto n = static_cast<size_t>(static_cast<unsigned char>(raw[i + 8]));
        recs.emplace_back(k, raw.substr(i + 9, n));
        i += 9 + n;
      }
      std::sort(recs.begin(), recs.end());
      sink_ += static_cast<u64>(recs[rng_.below(kRecords)].second.back());
    }
    return nowNs() - t0;
  }

 private:
  static constexpr size_t kBuckets = 4096;
  static constexpr u32 kRecords = 100;
  static constexpr size_t kProbes = 40;
  Pcg32 rng_;
  std::vector<std::string> buckets_;
  u64 sink_ = 0;
};

/// Calibration slices per round, spread evenly through it.
constexpr size_t kSlicesPerRound = 20;

/// Layer counters snapshotted at round boundaries; deltas over the
/// traced rounds give the per-layer metrics.
struct Snapshot {
  u64 substrateLookups = 0, hops = 0, valueBytes = 0, batchRounds = 0;
  u64 netMessages = 0, netBytes = 0;
  u64 meters = 0, splits = 0, merges = 0, recordsMoved = 0;
  u64 cacheHits = 0, cacheMisses = 0;
  u64 wrapperCalls = 0, wrapperKeys = 0;
  u64 sends = 0, receives = 0, bytesOut = 0, bytesIn = 0, retransmits = 0;
  u64 redirects = 0, refreshes = 0;
  u64 ranges = 0;
  std::array<Tracer::Totals, static_cast<size_t>(SpanKind::kCount)> spans{};
};

class Runner {
 public:
  Runner(const Args& args, const Spec& spec, Clock::time_point start)
      : args_(args), spec_(spec), start_(start), gen_(spec, args.seed),
        tracer_(args.trace ? kTraceSpanCapacity : 0) {}

  Result run();

 private:
  void buildStack();
  void preload();
  void runRound(bool timed, bool traced);
  void execute(const Op& op, bool timed, bool traced);
  void endOfWorkloadChecks();
  Snapshot snapshot() const;
  bool corrupt(const char* kind) {
    if (args_.corrupt != kind || corrupted_) return false;
    corrupted_ = true;
    return true;
  }

  const Args& args_;
  const Spec& spec_;
  Clock::time_point start_;
  OpGen gen_;
  Oracle oracle_;
  Calibrator calib_;
  Tracer tracer_;
  WireCounters wire_;
  std::unique_ptr<Cluster> cluster_;
  Stack st_;
  bool corrupted_ = false;
  u64 sessionOps_ = 0;  ///< every index op of the session, preloaded records included
  u64 bucketsWalked_ = 0;

  // Timed-phase accumulators.
  // Per round: op latencies (untraced) or lht self times (traced).
  std::array<std::vector<u32>, kKinds> roundNs_;
  u64 roundBusyNs_ = 0;
  u64 roundSteps_ = 0;
  std::vector<double> roundSlicesNs_;
  std::vector<double> timedSlicesNs_;  ///< every slice of the timed rounds
  // Per-round figures; each metric is the median over the rounds.
  std::vector<double> untracedTput_, tracedTput_;
  std::array<std::vector<double>, kKinds> p50_, p99_, selfP50_;
  u64 timedOps_ = 0;
  size_t countedRounds_ = 0;
  u64 countOps_ = 0, countLookups_ = 0, countSteps_ = 0, countValueBytes_ = 0;
  Snapshot traceSum_;  ///< sums of per-round deltas over traced rounds
  u64 tracedOps_ = 0;
  u64 tracedCpuNs_ = 0, tracedAllocs_ = 0;  ///< inside the index calls only
  u64 rangesRun_ = 0;
};

Snapshot Runner::snapshot() const {
  Snapshot s;
  const auto& ds = st_.substrate().stats();
  s.substrateLookups = ds.lookups;
  s.hops = ds.hops;
  s.valueBytes = ds.valueBytesMoved;
  s.batchRounds = ds.batchRounds;
  if (st_.net) {
    s.netMessages = st_.net->stats().messages;
    s.netBytes = st_.net->stats().bytes;
  }
  const auto& m = st_.index->meters();
  s.meters = meterLookups(*st_.index);
  s.splits = m.maintenance.splits;
  s.merges = m.maintenance.merges;
  s.recordsMoved = m.maintenance.recordsMoved;
  s.cacheHits = st_.index->leafCache().hits();
  s.cacheMisses = st_.index->leafCache().misses();
  if (st_.traced) {
    s.wrapperCalls = st_.traced->calls;
    s.wrapperKeys = st_.traced->keys;
  }
  s.sends = wire_.sends;
  s.receives = wire_.receives;
  s.bytesOut = wire_.bytesOut;
  s.bytesIn = wire_.bytesIn;
  s.retransmits = wire_.retransmits;
  if (st_.routed) {
    const auto rs = st_.routed->routedStats();
    s.redirects = rs.redirectsFollowed;
    s.refreshes = rs.refreshes;
  }
  s.ranges = rangesRun_;
  for (size_t k = 0; k < s.spans.size(); ++k) {
    s.spans[k] = tracer_.totals(static_cast<SpanKind>(k));
  }
  return s;
}

void addDelta(Snapshot& sum, const Snapshot& a, const Snapshot& b) {
  sum.substrateLookups += b.substrateLookups - a.substrateLookups;
  sum.hops += b.hops - a.hops;
  sum.valueBytes += b.valueBytes - a.valueBytes;
  sum.batchRounds += b.batchRounds - a.batchRounds;
  sum.netMessages += b.netMessages - a.netMessages;
  sum.netBytes += b.netBytes - a.netBytes;
  sum.meters += b.meters - a.meters;
  sum.splits += b.splits - a.splits;
  sum.merges += b.merges - a.merges;
  sum.recordsMoved += b.recordsMoved - a.recordsMoved;
  sum.cacheHits += b.cacheHits - a.cacheHits;
  sum.cacheMisses += b.cacheMisses - a.cacheMisses;
  sum.wrapperCalls += b.wrapperCalls - a.wrapperCalls;
  sum.wrapperKeys += b.wrapperKeys - a.wrapperKeys;
  sum.sends += b.sends - a.sends;
  sum.receives += b.receives - a.receives;
  sum.bytesOut += b.bytesOut - a.bytesOut;
  sum.bytesIn += b.bytesIn - a.bytesIn;
  sum.retransmits += b.retransmits - a.retransmits;
  sum.redirects += b.redirects - a.redirects;
  sum.refreshes += b.refreshes - a.refreshes;
  sum.ranges += b.ranges - a.ranges;
  for (size_t k = 0; k < sum.spans.size(); ++k) {
    sum.spans[k].count += b.spans[k].count - a.spans[k].count;
    sum.spans[k].totalNs += b.spans[k].totalNs - a.spans[k].totalNs;
  }
}

void Runner::buildStack() {
  st_ = Stack{};
  LhtIndex::Options io;  // the paper-faithful defaults
  if (spec_.cluster) {
    io.useLeafCache = true;
    io.batchFanout = true;
    io.cacheDecodedBuckets = true;
    lht::dht::RoutedNetDht::Options ro;
    ro.seed = lht::rpc::NetAddr{lht::rpc::kLoopbackHost, cluster_->seedPort()};
    ro.replication = kClusterReplication;
    const bool trace = args_.trace;
    st_.routed = std::make_unique<lht::dht::RoutedNetDht>(ro, [this, trace] {
      auto udp = std::make_unique<lht::rpc::UdpTransport>(
          lht::rpc::UdpTransport::Options{});
      if (!trace) return std::unique_ptr<lht::rpc::Transport>(std::move(udp));
      return std::unique_ptr<lht::rpc::Transport>(
          std::make_unique<TracingTransport>(std::move(udp), tracer_, wire_));
    });
    // Wait for the client's view to hold every daemon.
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (st_.routed->knownMembers() < cluster_->size()) {
      if (Clock::now() > deadline) {
        throw std::runtime_error("cluster membership never completed");
      }
      st_.routed->bootstrap(2000);
    }
  } else {
    st_.net = std::make_unique<lht::net::SimNetwork>();
    lht::dht::ChordDht::Options co;
    co.seed = args_.seed;
    st_.chord = std::make_unique<lht::dht::ChordDht>(*st_.net, co);
  }
  lht::dht::Dht* top = &st_.substrate();
  if (args_.trace) {
    st_.traced = std::make_unique<TracingDht>(*top, tracer_);
    top = st_.traced.get();
  }
  st_.index = std::make_unique<LhtIndex>(*top, io);
}

void Runner::preload() {
  oracle_ = Oracle{};
  auto recs = gen_.preload(oracle_, spec_.preload);
  sessionOps_ += recs.size();
  if (!recs.empty()) st_.index->insertBatch(std::move(recs));
}

void Runner::execute(const Op& op, bool timed, bool traced) {
  LhtIndex& idx = *st_.index;
  // Span kind of each operation, in Kind order.
  static constexpr SpanKind kSpans[kKinds] = {
      SpanKind::LhtInsert, SpanKind::LhtErase, SpanKind::LhtFind,
      SpanKind::LhtRange,  SpanKind::LhtMin,   SpanKind::LhtMax};
  const size_t t = static_cast<size_t>(op.kind);
  const u64 splitsBefore = idx.meters().maintenance.splits;

  lht::index::FindResult fr;
  lht::index::UpdateResult ur;
  lht::index::RangeResult rr;
  // CPU time and allocations are read around the index call alone, so the
  // benchmark's own work (operation generation, oracle, checks) is left out.
  const u64 cpu0 = traced ? threadCpuNs() : 0;
  const u64 allocs0 = traced ? allocCount() : 0;
  if (traced) tracer_.begin(kSpans[t]);
  const u64 t0 = nowNs();
  switch (op.kind) {
    case Kind::Find: fr = idx.find(op.key); break;
    case Kind::Insert: ur = idx.insert(Record{op.key, op.payload}); break;
    case Kind::Erase: ur = idx.erase(op.key); break;
    case Kind::Range: rr = idx.rangeQuery(op.key, op.hi); break;
    case Kind::Min: fr = idx.minRecord(); break;
    case Kind::Max: fr = idx.maxRecord(); break;
  }
  const u64 dt = nowNs() - t0;
  const u64 self = traced ? tracer_.end() : 0;
  if (traced) {
    tracedAllocs_ += allocCount() - allocs0;
    tracedCpuNs_ += threadCpuNs() - cpu0;
  }
  sessionOps_ += 1;
  if (op.kind == Kind::Range) rangesRun_ += 1;

  const lht::cost::OpStats& cost =
      op.kind == Kind::Insert || op.kind == Kind::Erase ? ur.stats
      : op.kind == Kind::Range                          ? rr.stats
                                                        : fr.stats;
  if (timed) {
    roundNs_[t].push_back(static_cast<u32>(std::min<u64>(traced ? self : dt, UINT32_MAX)));
    roundBusyNs_ += dt;
    roundSteps_ += cost.parallelSteps;
  }

  // Output checks against the oracle, then the method properties.
  const auto& m = oracle_.map();
  switch (op.kind) {
    case Kind::Find: {
      if (corrupt("find")) fr.record = Record{op.key, "corrupted"};
      const auto it = m.find(op.key);
      const bool ok = it == m.end() ? !fr.record.has_value()
                                    : fr.record && fr.record->key == op.key &&
                                          fr.record->payload == it->second;
      check(ok, [&] { return "find(" + keyStr(op.key) + ") disagrees with the oracle"; });
      break;
    }
    case Kind::Insert:
      check(ur.ok, [&] { return "insert(" + keyStr(op.key) + ") reported failure"; });
      oracle_.insert(op.key, op.payload);
      if (!spec_.cluster) {
        check(idx.meters().maintenance.splits - splitsBefore <= 1,
              "an insert performed more than one split");
      }
      break;
    case Kind::Erase: {
      const bool had = oracle_.erase(op.key);
      check(ur.ok == had,
            [&] { return "erase(" + keyStr(op.key) + ") disagrees with the oracle"; });
      break;
    }
    case Kind::Range: {
      auto& got = rr.records;
      if (!got.empty() && corrupt("range")) got.pop_back();
      std::sort(got.begin(), got.end(), lht::index::recordLess);
      auto it = m.lower_bound(op.key);
      const auto end = m.lower_bound(op.hi);
      bool ok = true;
      for (const auto& r : got) {
        if (it == end || r.key != it->first || r.payload != it->second) {
          ok = false;
          break;
        }
        ++it;
      }
      check(ok && it == end, [&] {
        return "range[" + keyStr(op.key) + ", " + keyStr(op.hi) +
               ") disagrees with the oracle";
      });
      if (rr.stats.bucketsTouched >= 2) {
        check(rr.stats.dhtLookups <= rr.stats.bucketsTouched + 3, [&] {
          return "a range over " + std::to_string(rr.stats.bucketsTouched) +
                 " buckets cost " + std::to_string(rr.stats.dhtLookups) +
                 " DHT-lookups, more than B + 3";
        });
      }
      break;
    }
    case Kind::Min:
    case Kind::Max: {
      if (op.kind == Kind::Min && fr.record && corrupt("min")) fr.record->key += 1e-9;
      const bool isMin = op.kind == Kind::Min;
      bool ok = m.empty() ? !fr.record.has_value() : fr.record.has_value();
      if (ok && fr.record) {
        const auto& want = isMin ? *m.begin() : *m.rbegin();
        ok = fr.record->key == want.first && fr.record->payload == want.second;
      }
      check(ok, isMin ? "min disagrees with the oracle" : "max disagrees with the oracle");
      if (spec_.minMaxOneLookup) {
        u64 lookups = fr.stats.dhtLookups;
        if (corrupt("property")) lookups += 1;
        check(lookups == 1, [&] {
          return std::string(isMin ? "min" : "max") + " cost " +
                 std::to_string(lookups) + " DHT-lookups, not 1";
        });
      }
      break;
    }
  }
  check(cost.parallelSteps <= cost.dhtLookups,
        "an operation took more parallel steps than DHT-lookups");
}

void Runner::runRound(bool timed, bool traced) {
  if (spec_.freshPerRound) {
    // Every round replays the same inputs on a new index.
    gen_ = OpGen(spec_, args_.seed);
    buildStack();
    preload();
  }
  tracer_.enabled = traced;
  roundBusyNs_ = 0;
  for (auto& v : roundNs_) v.clear();
  roundSteps_ = 0;
  roundSlicesNs_.clear();
  const size_t sliceEvery = spec_.roundOps / kSlicesPerRound;
  const Snapshot before = snapshot();
  for (size_t i = 0; i < spec_.roundOps; ++i) {
    if (i % sliceEvery == 0) roundSlicesNs_.push_back(static_cast<double>(calib_.slice()));
    execute(gen_.next(oracle_), timed, traced);
  }
  const Snapshot after = snapshot();
  tracer_.enabled = false;

  // Independent totals: the index's meters, the substrate's counter and
  // (traced) the keys through the Dht wrapper must agree.
  u64 meters = after.meters - before.meters;
  if (corrupt("totals")) meters += 1;
  const u64 substrate = after.substrateLookups - before.substrateLookups;
  check(meters == substrate, [&] {
    return "index meters counted " + std::to_string(meters) +
           " DHT-lookups, the substrate " + std::to_string(substrate);
  });
  if (traced) {
    const u64 wrapper = after.wrapperKeys - before.wrapperKeys;
    check(wrapper == substrate, [&] {
      return "the Dht wrapper saw " + std::to_string(wrapper) +
             " DHT-lookups, the substrate " + std::to_string(substrate);
    });
  }
  if (spec_.freshPerRound) endOfWorkloadChecks();
  if (!timed) return;

  timedSlicesNs_.insert(timedSlicesNs_.end(), roundSlicesNs_.begin(), roundSlicesNs_.end());
  timedOps_ += spec_.roundOps;
  const double tput = ratio(static_cast<double>(spec_.roundOps),
                            static_cast<double>(roundBusyNs_) / 1e9);
  (traced ? tracedTput_ : untracedTput_).push_back(tput);
  for (size_t t = 0; t < kKinds; ++t) {
    if (traced) {
      selfP50_[t].push_back(quantileNs(roundNs_[t], 0.5) / 1e3);
    } else {
      p50_[t].push_back(quantileNs(roundNs_[t], 0.5) / 1e3);
      p99_[t].push_back(quantileNs(roundNs_[t], 0.99) / 1e3);
    }
  }
  if (countedRounds_ < spec_.countRounds) {
    countedRounds_ += 1;
    countOps_ += spec_.roundOps;
    countLookups_ += substrate;
    countSteps_ += roundSteps_;
    countValueBytes_ += after.valueBytes - before.valueBytes;
  }
  if (traced) {
    addDelta(traceSum_, before, after);
    tracedOps_ += spec_.roundOps;
  }
}

void Runner::endOfWorkloadChecks() {
  const auto& m = oracle_.map();
  auto reproducesOracle = [&m](const std::vector<Record>& sorted) {
    if (sorted.size() != m.size()) return false;
    auto it = m.begin();
    for (const auto& r : sorted) {
      if (r.key != it->first || r.payload != it->second) return false;
      ++it;
    }
    return true;
  };

  // A full-range scan must reproduce the oracle exactly...
  if (spec_.fullScan) {
    auto scan = st_.index->rangeQuery(0.0, 1.0).records;
    sessionOps_ += 1;
    if (!scan.empty() && corrupt("scan")) scan.erase(scan.begin());
    std::sort(scan.begin(), scan.end(), lht::index::recordLess);
    check(reproducesOracle(scan), [&] {
      return "the full-range scan returned " + std::to_string(scan.size()) +
             " records that do not reproduce the oracle's " + std::to_string(m.size());
    });
  }

  // ...and so must a walk over every leaf bucket, in key order.
  std::vector<Record> walked;
  walked.reserve(m.size());
  u64 buckets = 0;
  st_.index->forEachBucket([&](const lht::core::LeafBucket& b) {
    buckets += 1;
    std::vector<Record> rs = b.records;
    std::sort(rs.begin(), rs.end(), lht::index::recordLess);
    walked.insert(walked.end(), rs.begin(), rs.end());
  });
  if (!walked.empty() && corrupt("walk")) walked.back().payload += "x";
  check(reproducesOracle(walked), [&] {
    return "the forEachBucket walk (" + std::to_string(buckets) +
           " buckets) does not reproduce the oracle";
  });

  // Every split adds one leaf and every merge removes one.
  const auto& mt = st_.index->meters().maintenance;
  u64 leaves = 1 + mt.splits - mt.merges;
  if (corrupt("leaves")) leaves += 1;
  check(leaves == buckets, [&] {
    return "the meters imply " + std::to_string(leaves) + " leaves, the walk found " +
           std::to_string(buckets);
  });
  bucketsWalked_ = buckets;
}

Result Runner::run() {
  if (spec_.cluster) {
    // The daemons and the one client thread must not outnumber the CPUs.
    const size_t cpus = usableCpus();
    if (kClusterNodes + 1 > cpus) {
      throw std::runtime_error(
          "cluster-mixed needs " + std::to_string(kClusterNodes + 1) +
          " CPUs (3 daemons + 1 client thread); " + std::to_string(cpus) +
          " usable");
    }
    cluster_ = std::make_unique<Cluster>(args_.noded, kClusterNodes,
                                         kClusterReplication);
  }
  if (!spec_.freshPerRound) {
    buildStack();
    preload();
  }
  for (size_t i = 0; i < spec_.warmupRounds; ++i) {
    runRound(/*timed=*/false, /*traced=*/false);
  }
  const auto timedStart = Clock::now();
  const double setupS =
      std::chrono::duration<double>(timedStart - start_).count();

  // Timed rounds until --seconds have passed; a traced run alternates
  // untraced and traced rounds so the overhead is measured side by side.
  const auto budget = std::chrono::duration<double>(args_.seconds);
  size_t rounds = 0;
  const size_t minRounds = std::max<size_t>(spec_.countRounds, args_.trace ? 2 : 1);
  while (rounds < minRounds || Clock::now() - timedStart < budget) {
    runRound(/*timed=*/true, /*traced=*/args_.trace && rounds % 2 == 1);
    rounds += 1;
  }

  if (!spec_.freshPerRound) endOfWorkloadChecks();

  std::vector<DaemonSummary> daemons;
  if (cluster_) {
    st_ = Stack{};  // close the client before the daemons go
    daemons = cluster_->stop();
    u64 primary = 0;
    for (const auto& d : daemons) primary += d.primaryKeys;
    if (corrupt("primary")) primary += 1;
    check(primary == bucketsWalked_, [&] {
      return "the daemons hold " + std::to_string(primary) +
             " primary keys but the index has " + std::to_string(bucketsWalked_) +
             " buckets";
    });
    cluster_.reset();
    check(!anyChildAlive(), "a daemon is still running after shutdown");
  }
  if (!args_.corrupt.empty() && !corrupted_) {
    throw std::runtime_error("--corrupt " + args_.corrupt +
                             " never reached its check on this workload");
  }

  Result res;
  res.attempted = timedOps_;
  res.failed = 0;
  auto add = [&](const char* name, double v, const char* unit) {
    res.metrics.push_back(Metric{name, v, unit});
  };
  if (!args_.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto f = static_cast<size_t>(Kind::Find);
    const auto ins = static_cast<size_t>(Kind::Insert);
    const auto rg = static_cast<size_t>(Kind::Range);
    // Calibrated, set-up time included: as if a calibration slice had
    // taken kRefSliceNs.
    const double scale = Calibrator::kRefSliceNs / median(timedSlicesNs_);
    add("throughput", median(untracedTput_) / scale, "ops/s");
    add("find_p50_us", median(p50_[f]) * scale, "us");
    add("insert_p50_us", median(p50_[ins]) * scale, "us");
    add("insert_p99_us", median(p99_[ins]) * scale, "us");
    add("range_p50_us", median(p50_[rg]) * scale, "us");
    add("dht_lookups_per_op", ratio(countLookups_, countOps_), "lookups");
    add("steps_per_op", ratio(countSteps_, countOps_), "steps");
    add("value_bytes_per_op", ratio(countValueBytes_, countOps_), "B");
    add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    add("setup_s", setupS * scale, "s");
    return res;
  }

  const Snapshot& s = traceSum_;
  const double ops = static_cast<double>(tracedOps_);
  auto spanUs = [&](SpanKind k) {
    const auto& t = s.spans[static_cast<size_t>(k)];
    return ratio(static_cast<double>(t.totalNs) / 1e3, static_cast<double>(t.count));
  };
  auto perOpUs = [&](SpanKind k) {
    return ratio(static_cast<double>(s.spans[static_cast<size_t>(k)].totalNs) / 1e3, ops);
  };
  u64 handled = 0, forwards = 0, gossip = 0;
  for (const auto& d : daemons) {
    handled += d.handled;
    forwards += d.forwards;
    gossip += d.gossipRounds;
  }
  add("lht.find.self_us", median(selfP50_[static_cast<size_t>(Kind::Find)]), "us");
  add("lht.insert.self_us", median(selfP50_[static_cast<size_t>(Kind::Insert)]), "us");
  add("lht.range.self_us", median(selfP50_[static_cast<size_t>(Kind::Range)]), "us");
  add("lht.splits_per_kop", 1e3 * ratio(s.splits, ops), "count/kop");
  add("lht.merges_per_kop", 1e3 * ratio(s.merges, ops), "count/kop");
  add("lht.records_moved_per_split", ratio(s.recordsMoved, s.splits), "records");
  add("lht.leafcache.hit_ratio", ratio(s.cacheHits, s.cacheHits + s.cacheMisses), "ratio");
  add("dht.get.us", spanUs(SpanKind::DhtGet), "us");
  add("dht.apply.us", spanUs(SpanKind::DhtApply), "us");
  add("dht.multiget.us", spanUs(SpanKind::DhtMultiGet), "us");
  add("dht.calls_per_op", ratio(s.wrapperCalls, ops), "calls/op");
  add("dht.hops_per_lookup", ratio(s.hops, s.substrateLookups), "hops");
  add("dht.batch_rounds_per_range", ratio(s.batchRounds, s.ranges), "rounds");
  add("net.messages_per_lookup", ratio(s.netMessages, s.substrateLookups), "msgs");
  add("net.bytes_per_lookup", ratio(s.netBytes, s.substrateLookups), "B");
  add("rpc.sends_per_op", ratio(s.sends, ops), "sends/op");
  add("rpc.receives_per_op", ratio(s.receives, ops), "recvs/op");
  add("rpc.bytes_out_per_op", ratio(s.bytesOut, ops), "B/op");
  add("rpc.bytes_in_per_op", ratio(s.bytesIn, ops), "B/op");
  add("rpc.send_us", perOpUs(SpanKind::RpcSend), "us/op");
  add("rpc.wait_us", perOpUs(SpanKind::RpcReceive), "us/op");
  add("rpc.retransmits", static_cast<double>(s.retransmits), "count");
  add("client.cpu_us_per_op", ratio(static_cast<double>(tracedCpuNs_) / 1e3, ops), "us/op");
  add("overlay.redirects", static_cast<double>(s.redirects), "count");
  add("overlay.view_refreshes", static_cast<double>(s.refreshes), "count");
  add("server.requests_per_op", ratio(handled, sessionOps_), "reqs/op");
  add("overlay.forwards", static_cast<double>(forwards), "count");
  add("overlay.gossip_rounds", static_cast<double>(gossip), "count");
  add("alloc.per_op", ratio(tracedAllocs_, ops), "allocs/op");
  add("host.calib_slice_us", median(timedSlicesNs_) / 1e3, "us");
  add("trace.overhead_pct",
      100.0 * (ratio(median(untracedTput_), median(tracedTput_)) - 1.0), "%");

  std::string path = args_.outDir + "/trace-" + spec_.name + ".json";
  tracer_.writeChromeTrace(path);
  std::fprintf(stderr, "lhtbench: %zu spans written to %s\n", tracer_.spansKept(),
               path.c_str());
  return res;
}

}  // namespace

Result runWorkload(const Args& args, Clock::time_point processStart) {
  for (const Spec& spec : kSpecs) {
    if (args.workload == spec.name) {
      Runner runner(args, spec, processStart);
      return runner.run();
    }
  }
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace lhtbench
