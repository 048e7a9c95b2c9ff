// Real-socket smoke tests: fork/exec lht_noded daemons on ephemeral UDP
// ports and drive them through UdpTransport — the only tests that cross a
// process boundary, so they pin the parts the SimHub twin cannot: the
// epoll loop, real sockaddr round-trips, the daemon's ready-line contract,
// and clean SIGTERM shutdown. Skipped (not failed) when the lht_noded
// binary is not where the build puts it.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "dht/routed_net_dht.h"
#include "rpc/rpc_client.h"
#include "rpc/udp_transport.h"

namespace lht::rpc {
namespace {

/// Path to the lht_noded binary: $LHT_NODED_PATH, else next to this test
/// binary's build tree (build/tests/lht_tests -> build/src/rpc/lht_noded).
std::string findNoded() {
  if (const char* env = std::getenv("LHT_NODED_PATH")) {
    if (::access(env, X_OK) == 0) return env;
  }
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return {};
  exe[n] = '\0';
  std::string dir(exe);
  const size_t slash = dir.rfind('/');
  if (slash == std::string::npos) return {};
  dir.resize(slash);
  for (const char* rel : {"/../src/rpc/lht_noded", "/lht_noded"}) {
    const std::string candidate = dir + rel;
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

/// One spawned daemon; SIGTERMs and reaps it on destruction.
struct Daemon {
  pid_t pid = -1;
  u16 port = 0;

  Daemon() = default;
  Daemon(Daemon&& o) noexcept : pid(o.pid), port(o.port) { o.pid = -1; }
  Daemon& operator=(Daemon&&) = delete;
  ~Daemon() { (void)stop(); }

  /// SIGTERM + reap; returns the exit status (-1 if not running).
  int stop() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }
};

/// fork/execs `binary --port=0 --quiet=true` and parses the ready line.
bool spawnDaemon(const std::string& binary, const std::string& name,
                 Daemon& out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string nameArg = "--name=" + name;
    char* argv[] = {const_cast<char*>(binary.c_str()),
                    const_cast<char*>("--port=0"),
                    const_cast<char*>("--quiet=true"),
                    const_cast<char*>(nameArg.c_str()), nullptr};
    ::execv(binary.c_str(), argv);
    _exit(127);
  }
  ::close(fds[1]);
  FILE* pipe = ::fdopen(fds[0], "r");
  char line[256] = {0};
  const bool gotLine = pipe != nullptr && std::fgets(line, sizeof(line), pipe);
  if (pipe != nullptr) std::fclose(pipe);  // daemon keeps running; we only
                                           // needed the ready line
  unsigned parsedPort = 0;
  if (!gotLine ||
      std::sscanf(line, "lht_noded: ready on 127.0.0.1:%u", &parsedPort) != 1 ||
      parsedPort == 0 || parsedPort > 65535) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  out.pid = pid;
  out.port = static_cast<u16>(parsedPort);
  return true;
}

TEST(NetLoopback, DaemonAnswersOverRealSockets) {
  const std::string binary = findNoded();
  if (binary.empty()) GTEST_SKIP() << "lht_noded binary not found";
  Daemon daemon;
  ASSERT_TRUE(spawnDaemon(binary, "loopback-a", daemon));
  const NetAddr server{kLoopbackHost, daemon.port};

  UdpTransport transport{UdpTransport::Options{}};  // ephemeral client port
  RpcClient cli(transport);
  auto ping = cli.callOne(server, wire::PingReq{});
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(std::get<wire::PingRep>(ping.body).nodeName, "loopback-a");

  auto put = cli.callOne(server, wire::PutReq{"k", "loopback-value"});
  ASSERT_TRUE(put.ok());
  auto get = cli.callOne(server, wire::GetReq{"k"});
  ASSERT_TRUE(get.ok());
  EXPECT_TRUE(std::get<wire::GetRep>(get.body).present);
  EXPECT_EQ(std::get<wire::GetRep>(get.body).value, "loopback-value");

  // Clean shutdown on SIGTERM is part of the daemon contract.
  const int status = daemon.stop();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(NetLoopback, NetDhtAcrossTwoProcesses) {
  const std::string binary = findNoded();
  if (binary.empty()) GTEST_SKIP() << "lht_noded binary not found";
  Daemon a, b;
  ASSERT_TRUE(spawnDaemon(binary, "proc-a", a));
  ASSERT_TRUE(spawnDaemon(binary, "proc-b", b));

  dht::RoutedNetDht::Options o;
  o.nodes = {NetAddr{kLoopbackHost, a.port}, NetAddr{kLoopbackHost, b.port}};
  o.replication = 2;
  dht::RoutedNetDht dht(
      o, [] { return std::make_unique<UdpTransport>(UdpTransport::Options{}); });
  ASSERT_TRUE(dht.bootstrap(5000));

  for (int i = 0; i < 20; ++i) {
    dht.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(dht.get("key" + std::to_string(i)), "v" + std::to_string(i));
    EXPECT_EQ(dht.getReplica("key" + std::to_string(i), 0),
              "v" + std::to_string(i));
  }
  EXPECT_TRUE(dht.apply("key0", [](std::optional<dht::Value>& v) {
    ASSERT_TRUE(v.has_value());
    *v += "+applied";
  }));
  EXPECT_EQ(dht.get("key0"), "v0+applied");

  std::vector<dht::Key> keys;
  for (int i = 0; i < 20; ++i) keys.push_back("key" + std::to_string(i));
  auto outcomes = dht.multiGet(keys);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << keys[i] << ": " << outcomes[i].error;
    ASSERT_TRUE(outcomes[i].value.has_value());
  }
  EXPECT_EQ(dht.size(), 20u);
  EXPECT_EQ(dht.routedStats().timeouts, 0u);

  for (Daemon* d : {&a, &b}) {
    const int status = d->stop();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

}  // namespace
}  // namespace lht::rpc
