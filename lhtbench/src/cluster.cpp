// Spawning, watching and reaping the overlay daemons.
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bench.h"

namespace lhtbench {
namespace {

constexpr size_t kMaxDaemons = 16;
constexpr int kStartupMs = 15000;
constexpr int kStopMs = 10000;

/// Live daemon pids, readable from a signal handler (0 = free slot).
std::atomic<int> g_pids[kMaxDaemons];

void registerPid(int pid) {
  for (auto& slot : g_pids) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void unregisterPid(int pid) {
  for (auto& slot : g_pids) {
    int expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void onFatalSignal(int sig) {
  for (auto& slot : g_pids) {
    const int pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_pids) {
    const int pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  static const char msg[] = "lhtbench: interrupted, daemons killed\n";
  [[maybe_unused]] const ssize_t n = ::write(STDERR_FILENO, msg, sizeof msg - 1);
  ::_exit(128 + sig);
}

int remainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// Appends what is readable on `fd` to `text` until `until(text)` holds,
/// EOF, or the deadline. Returns whether `until` held.
template <typename Pred>
bool readUntil(int fd, std::string& text, Clock::time_point deadline,
               Pred until) {
  char buf[4096];
  while (!until(text)) {
    pollfd p{fd, POLLIN, 0};
    const int ms = remainingMs(deadline);
    if (ms == 0) return false;
    const int r = ::poll(&p, 1, ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return until(text);
    text.append(buf, static_cast<size_t>(n));
  }
  return true;
}

u64 fieldOf(const std::string& line, const char* name) {
  const std::string tag = std::string(" ") + name + "=";
  const size_t at = line.find(tag);
  if (at == std::string::npos) {
    throw std::runtime_error("daemon summary lacks " + std::string(name) +
                             ": " + line);
  }
  return std::stoull(line.substr(at + tag.size()));
}

}  // namespace

void installSignalHandlers() {
  struct sigaction sa{};
  sa.sa_handler = onFatalSignal;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT}) {
    ::sigaction(sig, &sa, nullptr);
  }
  // A daemon closing its pipe must not kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
}

bool anyChildAlive() {
  for (;;) {
    const int r = ::waitpid(-1, nullptr, WNOHANG);
    if (r == 0) return true;    // a child exists and is still running
    if (r < 0) return false;    // ECHILD: no children left
  }
}

size_t usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

Cluster::Cluster(const std::string& nodedPath, size_t nodes,
                 size_t replication) {
  if (::access(nodedPath.c_str(), X_OK) != 0) {
    throw std::runtime_error("lht_noded not found or not executable at '" +
                             nodedPath + "'");
  }
  if (nodes == 0 || nodes > kMaxDaemons) {
    throw std::runtime_error("cluster size out of range");
  }
  const std::string rep = "--replication=" + std::to_string(replication);
  try {
    for (size_t i = 0; i < nodes; ++i) {
      std::vector<std::string> args = {"--port=0", "--overlay=true", rep,
                                       "--name=bench-" + std::to_string(i)};
      if (i > 0) args.push_back("--seed-port=" + std::to_string(seedPort()));
      spawn(nodedPath, args);
      if (i == 0) continue;
      // Joins run one at a time: the next daemon starts only after this
      // one has finished its join handshake.
      Daemon& d = daemons_.back();
      const bool joined = readUntil(
          d.errFd, d.errText, Clock::now() + std::chrono::milliseconds(kStartupMs),
          [](const std::string& t) { return t.find(" joined (") != std::string::npos; });
      if (!joined) {
        throw std::runtime_error("daemon " + std::to_string(i) +
                                 " did not join: " + d.errText);
      }
    }
  } catch (...) {
    killAll();
    throw;
  }
}

Cluster::~Cluster() { killAll(); }

void Cluster::spawn(const std::string& nodedPath,
                    const std::vector<std::string>& args) {
  int outPipe[2];
  int errPipe[2];
  if (::pipe(outPipe) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(errPipe) != 0) {
    ::close(outPipe[0]);
    ::close(outPipe[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(nodedPath.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {outPipe[0], outPipe[1], errPipe[0], errPipe[1]}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // The daemon dies with the benchmark, whatever kills the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(outPipe[1], STDOUT_FILENO);
    ::dup2(errPipe[1], STDERR_FILENO);
    for (const int fd : {outPipe[0], outPipe[1], errPipe[0], errPipe[1]}) ::close(fd);
    ::execv(nodedPath.c_str(), argv.data());
    ::_exit(127);
  }
  registerPid(pid);
  ::close(outPipe[1]);
  ::close(errPipe[1]);
  daemons_.push_back(Daemon{pid, 0, errPipe[0], {}});

  std::string out;
  const bool ready = readUntil(
      outPipe[0], out, Clock::now() + std::chrono::milliseconds(kStartupMs),
      [](const std::string& t) { return t.find('\n') != std::string::npos; });
  ::close(outPipe[0]);
  unsigned port = 0;
  if (!ready ||
      std::sscanf(out.c_str(), "lht_noded: ready on 127.0.0.1:%u", &port) != 1 ||
      port == 0 || port > 65535) {
    throw std::runtime_error("daemon did not report ready: '" + out + "'");
  }
  daemons_.back().port = static_cast<std::uint16_t>(port);
}

void Cluster::killAll() {
  for (auto& d : daemons_) {
    if (d.pid > 0) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, nullptr, 0);
      unregisterPid(d.pid);
      d.pid = -1;
    }
    if (d.errFd >= 0) {
      ::close(d.errFd);
      d.errFd = -1;
    }
  }
}

std::vector<DaemonSummary> Cluster::stop() {
  for (auto& d : daemons_) {
    if (d.pid > 0) ::kill(d.pid, SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(kStopMs);
  std::vector<DaemonSummary> out;
  std::string failure;
  for (auto& d : daemons_) {
    // The daemon prints its summary and exits; EOF on the pipe follows.
    readUntil(d.errFd, d.errText, deadline, [](const std::string&) { return false; });
    int status = 0;
    pid_t r = 0;
    while ((r = ::waitpid(d.pid, &status, WNOHANG)) == 0 && remainingMs(deadline) > 0) {
      ::usleep(1000);
    }
    if (r != d.pid) {
      failure = "a daemon ignored SIGTERM";
      continue;  // killAll() below reaps it
    }
    unregisterPid(d.pid);
    d.pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      failure = "a daemon exited abnormally: " + d.errText;
      continue;
    }
    const size_t at = d.errText.find(" stopping (");
    if (at == std::string::npos) {
      failure = "a daemon printed no exit summary: " + d.errText;
      continue;
    }
    const std::string line = d.errText.substr(at);
    out.push_back(DaemonSummary{fieldOf(line, "(handled"), fieldOf(line, "forwards"),
                                fieldOf(line, "gossip_rounds"),
                                fieldOf(line, "primary_keys")});
  }
  killAll();
  if (!failure.empty()) throw std::runtime_error(failure);
  return out;
}

}  // namespace lhtbench
