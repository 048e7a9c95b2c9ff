// Shared declarations of the LHT benchmark (see ../README.md).
//
// The benchmark measures the library from outside: it drives LhtIndex
// through its public API, and in a traced run it interposes its own
// dht::Dht and rpc::Transport wrappers to attribute time and traffic to
// the layers below the index.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dht/dht.h"
#include "rpc/transport.h"

namespace lhtbench {

using u64 = std::uint64_t;
using u32 = std::uint32_t;
using Clock = std::chrono::steady_clock;

inline u64 nowNs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

/// A failed output, method-property or independent-total check. The
/// benchmark exits non-zero without printing a result.
class CheckFailure : public std::runtime_error {
 public:
  explicit CheckFailure(const std::string& what) : std::runtime_error(what) {}
};

/// Total calls to the global operator new in this process.
u64 allocCount();

/// Processor time of the calling thread, in nanoseconds.
u64 threadCpuNs();

// Tracing ---------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  LhtFind,
  LhtInsert,
  LhtErase,
  LhtRange,
  LhtMin,
  LhtMax,
  DhtGet,
  DhtPut,
  DhtApply,
  DhtRemove,
  DhtMultiGet,
  DhtMultiApply,
  DhtGetReplica,
  RpcSend,
  RpcReceive,
  kCount
};
const char* spanName(SpanKind k);

/// In-memory span recorder for one client thread. Spans nest through an
/// explicit stack; each closed span adds its duration to its parent's
/// child time, so self time (duration minus children) is exact. The first
/// `capacity` spans are kept for the trace file; aggregates cover all.
class Tracer {
 public:
  struct Totals {
    u64 count = 0;
    u64 totalNs = 0;
  };

  explicit Tracer(size_t capacity);

  bool enabled = false;

  void begin(SpanKind kind);
  /// Closes the innermost span; returns its self time.
  u64 end();

  [[nodiscard]] const Totals& totals(SpanKind k) const {
    return totals_[static_cast<size_t>(k)];
  }
  [[nodiscard]] size_t spansKept() const { return spans_.size(); }
  /// Writes the kept spans as Chrome trace events.
  void writeChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    u64 id;
    u64 parent;
    u64 startNs;
    u64 childNs;
    SpanKind kind;
  };
  struct Span {
    u64 id;
    u64 parent;
    u64 startNs;
    u64 endNs;
    SpanKind kind;
  };
  size_t capacity_;
  u64 nextId_ = 1;
  u64 epochNs_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::array<Totals, static_cast<size_t>(SpanKind::kCount)> totals_{};
};

/// Pass-through Dht that records one span per call and counts the keys
/// (DHT-lookups) that cross it, both only while the tracer is enabled.
class TracingDht final : public lht::dht::Dht {
 public:
  TracingDht(lht::dht::Dht& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void put(const lht::dht::Key& key, lht::dht::Value value) override;
  std::optional<lht::dht::Value> get(const lht::dht::Key& key) override;
  bool remove(const lht::dht::Key& key) override;
  bool apply(const lht::dht::Key& key, const lht::dht::Mutator& fn) override;
  std::vector<lht::dht::GetOutcome> multiGet(
      const std::vector<lht::dht::Key>& keys) override;
  std::vector<lht::dht::ApplyOutcome> multiApply(
      const std::vector<lht::dht::ApplyRequest>& reqs) override;
  void storeDirect(const lht::dht::Key& key, lht::dht::Value value) override;
  [[nodiscard]] size_t replicaFanout() const override {
    return inner_.replicaFanout();
  }
  std::optional<lht::dht::Value> getReplica(const lht::dht::Key& key,
                                            size_t replicaIndex) override;
  void syncStorage() override { inner_.syncStorage(); }
  void compactStorage() override { inner_.compactStorage(); }
  [[nodiscard]] size_t size() const override { return inner_.size(); }

  u64 calls = 0;  ///< routed calls (a batch counts once)
  u64 keys = 0;   ///< DHT-lookups: one per key, batch entries included

 private:
  void count(u64 n);

  lht::dht::Dht& inner_;
  Tracer& tracer_;
};

/// Client-side traffic of every TracingTransport in the process.
struct WireCounters {
  u64 sends = 0;
  u64 receives = 0;  ///< receive() calls (each may block)
  u64 bytesOut = 0;
  u64 bytesIn = 0;
  u64 retransmits = 0;  ///< requests re-sent under an already-sent id
  /// Recently sent request ids, direct-mapped by their low bits. Ids are
  /// sequential per client, so the table remembers the last 65536 sends
  /// without allocating on the traced path.
  std::vector<u64> sentIds = std::vector<u64>(1u << 16, 0);
};

/// Pass-through Transport that records send/receive spans and counts
/// calls, bytes and retransmitted request ids, only while the tracer is
/// enabled; otherwise it forwards straight to the inner transport.
class TracingTransport final : public lht::rpc::Transport {
 public:
  TracingTransport(std::unique_ptr<lht::rpc::Transport> inner, Tracer& tracer,
                   WireCounters& counters)
      : inner_(std::move(inner)), tracer_(tracer), counters_(counters) {}

  bool send(const lht::rpc::NetAddr& to, std::string_view payload) override;
  size_t receive(std::vector<lht::rpc::Datagram>& out, u64 timeoutMs) override;
  u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] lht::rpc::NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<lht::rpc::Transport> inner_;
  Tracer& tracer_;
  WireCounters& counters_;
};

// Cluster ---------------------------------------------------------------------

/// Counters one lht_noded daemon prints when it exits.
struct DaemonSummary {
  u64 handled = 0;
  u64 forwards = 0;
  u64 gossipRounds = 0;
  u64 primaryKeys = 0;
};

/// A set of overlay lht_noded processes on loopback UDP, grown from one
/// seed. Every daemon is killed and reaped on every exit path: by stop(),
/// by the destructor, by the fatal-signal handler, and (through
/// PR_SET_PDEATHSIG) by the kernel if the benchmark itself dies.
class Cluster {
 public:
  Cluster(const std::string& nodedPath, size_t nodes, size_t replication);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint16_t seedPort() const { return daemons_.at(0).port; }
  [[nodiscard]] size_t size() const { return daemons_.size(); }

  /// SIGTERMs every daemon, waits for each to exit and parses its exit
  /// summary. Throws when a daemon fails to exit cleanly.
  std::vector<DaemonSummary> stop();

 private:
  struct Daemon {
    int pid = -1;
    std::uint16_t port = 0;
    int errFd = -1;  ///< read end of the daemon's stderr
    std::string errText;
  };
  void spawn(const std::string& nodedPath, const std::vector<std::string>& args);
  void killAll();
  std::vector<Daemon> daemons_;
};

/// Installs handlers that kill every live daemon and exit on SIGINT,
/// SIGTERM, SIGHUP and SIGQUIT.
void installSignalHandlers();

/// How many CPUs this process may run on.
size_t usableCpus();

/// Whether any process started by this benchmark is still running.
bool anyChildAlive();

// Workloads -------------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string noded;    ///< path of the lht_noded binary
  std::string corrupt;  ///< check to feed a corrupted result (self-test)
  std::string outDir = ".bench_out";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload end to end. Throws CheckFailure on any failed check.
Result runWorkload(const Args& args, Clock::time_point processStart);

}  // namespace lhtbench
