// Allocation counter, span recorder and the Dht / Transport wrappers.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

#include "bench.h"
#include "rpc/wire.h"

namespace {
std::atomic<lhtbench::u64> g_allocs{0};
}  // namespace

// Counting global allocator. Every form of operator new in libstdc++ that
// is not replaced here (arrays, nothrow) forwards to this one.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace lhtbench {

using lht::dht::ApplyOutcome;
using lht::dht::ApplyRequest;
using lht::dht::GetOutcome;
using lht::dht::Key;
using lht::dht::Mutator;
using lht::dht::Value;

namespace {

/// RAII span around one wrapper call; a no-op while tracing is disabled.
class SpanGuard {
 public:
  SpanGuard(Tracer* t, SpanKind k) : t_(t->enabled ? t : nullptr) {
    if (t_ != nullptr) t_->begin(k);
  }
  ~SpanGuard() {
    if (t_ != nullptr) t_->end();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* t_;
};

}  // namespace

u64 allocCount() { return g_allocs.load(std::memory_order_relaxed); }

u64 threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

const char* spanName(SpanKind k) {
  switch (k) {
    case SpanKind::LhtFind: return "lht.find";
    case SpanKind::LhtInsert: return "lht.insert";
    case SpanKind::LhtErase: return "lht.erase";
    case SpanKind::LhtRange: return "lht.range";
    case SpanKind::LhtMin: return "lht.min";
    case SpanKind::LhtMax: return "lht.max";
    case SpanKind::DhtGet: return "dht.get";
    case SpanKind::DhtPut: return "dht.put";
    case SpanKind::DhtApply: return "dht.apply";
    case SpanKind::DhtRemove: return "dht.remove";
    case SpanKind::DhtMultiGet: return "dht.multiget";
    case SpanKind::DhtMultiApply: return "dht.multiapply";
    case SpanKind::DhtGetReplica: return "dht.get_replica";
    case SpanKind::RpcSend: return "rpc.send";
    case SpanKind::RpcReceive: return "rpc.receive";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(size_t capacity) : capacity_(capacity), epochNs_(nowNs()) {
  spans_.reserve(capacity);
  stack_.reserve(16);
}

void Tracer::begin(SpanKind kind) {
  const u64 parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Frame{nextId_++, parent, nowNs(), 0, kind});
}

u64 Tracer::end() {
  const u64 endNs = nowNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const u64 dur = endNs - f.startNs;
  if (!stack_.empty()) stack_.back().childNs += dur;
  Totals& t = totals_[static_cast<size_t>(f.kind)];
  t.count += 1;
  t.totalNs += dur;
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{f.id, f.parent, f.startNs, endNs, f.kind});
  }
  return dur > f.childNs ? dur - f.childNs : 0;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lhtbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", spanName(s.kind),
                 static_cast<double>(s.startNs - epochNs_) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// TracingDht ------------------------------------------------------------------

void TracingDht::count(u64 n) {
  if (!tracer_.enabled) return;
  calls += 1;
  keys += n;
}

void TracingDht::put(const Key& key, Value value) {
  SpanGuard g(&tracer_, SpanKind::DhtPut);
  count(1);
  inner_.put(key, std::move(value));
}

std::optional<Value> TracingDht::get(const Key& key) {
  SpanGuard g(&tracer_, SpanKind::DhtGet);
  count(1);
  return inner_.get(key);
}

bool TracingDht::remove(const Key& key) {
  SpanGuard g(&tracer_, SpanKind::DhtRemove);
  count(1);
  return inner_.remove(key);
}

bool TracingDht::apply(const Key& key, const Mutator& fn) {
  SpanGuard g(&tracer_, SpanKind::DhtApply);
  count(1);
  return inner_.apply(key, fn);
}

std::vector<GetOutcome> TracingDht::multiGet(const std::vector<Key>& ks) {
  SpanGuard g(&tracer_, SpanKind::DhtMultiGet);
  count(ks.size());
  return inner_.multiGet(ks);
}

std::vector<ApplyOutcome> TracingDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  SpanGuard g(&tracer_, SpanKind::DhtMultiApply);
  count(reqs.size());
  return inner_.multiApply(reqs);
}

void TracingDht::storeDirect(const Key& key, Value value) {
  inner_.storeDirect(key, std::move(value));
}

std::optional<Value> TracingDht::getReplica(const Key& key,
                                            size_t replicaIndex) {
  SpanGuard g(&tracer_, SpanKind::DhtGetReplica);
  count(1);
  return inner_.getReplica(key, replicaIndex);
}

// TracingTransport ------------------------------------------------------------

bool TracingTransport::send(const lht::rpc::NetAddr& to,
                            std::string_view payload) {
  if (!tracer_.enabled) return inner_->send(to, payload);
  counters_.sends += 1;
  counters_.bytesOut += payload.size();
  const auto header = lht::rpc::wire::decodeHeader(payload);
  if (const auto* h = std::get_if<lht::rpc::wire::Header>(&header);
      h != nullptr && !h->isReply) {
    u64& slot = counters_.sentIds[h->requestId & (counters_.sentIds.size() - 1)];
    if (slot == h->requestId) counters_.retransmits += 1;
    slot = h->requestId;
  }
  SpanGuard g(&tracer_, SpanKind::RpcSend);
  return inner_->send(to, payload);
}

size_t TracingTransport::receive(std::vector<lht::rpc::Datagram>& out,
                                 u64 timeoutMs) {
  if (!tracer_.enabled) return inner_->receive(out, timeoutMs);
  const size_t before = out.size();
  size_t got = 0;
  {
    SpanGuard g(&tracer_, SpanKind::RpcReceive);
    got = inner_->receive(out, timeoutMs);
  }
  counters_.receives += 1;
  for (size_t i = before; i < out.size(); ++i) {
    counters_.bytesIn += out[i].payload.size();
  }
  return got;
}

}  // namespace lhtbench
