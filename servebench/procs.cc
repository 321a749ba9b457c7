#include "procs.h"

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace servebench {
namespace {

using qlearn::common::Status;

// Parses a CPU list such as "0-3" or "0,2".
bool ParseCpuList(const std::string& list, cpu_set_t* set) {
  CPU_ZERO(set);
  std::stringstream in(list);
  std::string part;
  bool any = false;
  while (std::getline(in, part, ',')) {
    const size_t dash = part.find('-');
    const int lo = std::atoi(part.substr(0, dash).c_str());
    const int hi =
        dash == std::string::npos ? lo : std::atoi(part.substr(dash + 1).c_str());
    for (int c = lo; c <= hi && c < CPU_SETSIZE; ++c) {
      CPU_SET(c, set);
      any = true;
    }
  }
  return any;
}

uint64_t ProcStatTicks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::stringstream fields(text.substr(close + 2));
  std::string field;
  uint64_t ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtoull(field.c_str(), nullptr, 10);
  }
  return ticks;
}

uint64_t StatusField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

uint64_t VoluntarySwitches(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  uint64_t total = 0;
  if (DIR* tasks = opendir(dir.c_str())) {
    while (dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      total += StatusField(dir + "/" + entry->d_name + "/status",
                           "voluntary_ctxt_switches:");
    }
    closedir(tasks);
  }
  return total;
}

// sched_setaffinity on a pid moves only that thread; a process's mask is
// set by applying it to every task.
void PinProcess(pid_t pid, const std::string& cpus) {
  cpu_set_t mask;
  if (!ParseCpuList(cpus, &mask)) return;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* tasks = opendir(dir.c_str())) {
    while (dirent* entry = readdir(tasks)) {
      if (entry->d_name[0] == '.') continue;
      sched_setaffinity(std::atoi(entry->d_name), sizeof(mask), &mask);
    }
    closedir(tasks);
  }
}

}  // namespace

Status Fleet::Spawn(const std::string& launcher, std::vector<std::string> args,
                    const std::string& role, const std::string& cpus) {
  cpu_set_t mask;
  if (!ParseCpuList(cpus, &mask)) {
    return Status::InvalidArgument("bad CPU list " + cpus);
  }
  int ready[2];
  if (pipe(ready) != 0) return Status::Internal("pipe failed");
  args.insert(args.begin(), launcher);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(ready[0]);
    close(ready[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    sched_setaffinity(0, sizeof(mask), &mask);
    dup2(ready[1], STDOUT_FILENO);
    close(ready[0]);
    close(ready[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(ready[1]);
  children_.push_back(Child{pid, role, 0});
  // The launcher prints "port N" once it is serving.
  std::string line;
  char c = 0;
  pollfd waiter{ready[0], POLLIN, 0};
  while (line.find('\n') == std::string::npos) {
    if (poll(&waiter, 1, 20000) <= 0 || read(ready[0], &c, 1) != 1) break;
    line.push_back(c);
  }
  close(ready[0]);
  if (line.rfind("port ", 0) != 0) {
    return Status::Unavailable(role + " did not start: " + line);
  }
  children_.back().port =
      static_cast<uint16_t>(std::strtoul(line.c_str() + 5, nullptr, 10));
  return Status::OK();
}

Status Fleet::Start(const std::string& launcher, bool routed,
                    const std::string& cpus) {
  if (!routed) return Spawn(launcher, {"serve"}, "server", cpus);
  std::vector<std::string> router = {"route"};
  for (int b = 0; b < 2; ++b) {
    QLEARN_RETURN_IF_ERROR(Spawn(launcher, {"serve"}, "backend", cpus));
    router.push_back("--backend");
    router.push_back("127.0.0.1:" + std::to_string(children_.back().port));
  }
  return Spawn(launcher, router, "router", cpus);
}

void Fleet::Stop() {
  for (const Child& child : children_) kill(child.pid, SIGTERM);
  // A child gets 5 s to shut down cleanly, then SIGKILL; either way it is
  // reaped before Stop returns.
  for (const Child& child : children_) {
    int status = 0;
    bool reaped = false;
    for (int waited_ms = 0; !reaped && waited_ms < 5000; waited_ms += 10) {
      reaped = waitpid(child.pid, &status, WNOHANG) == child.pid;
      if (!reaped) usleep(10'000);
    }
    if (!reaped) {
      kill(child.pid, SIGKILL);
      while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  children_.clear();
}

void Fleet::Pin(const std::string& cpus) const {
  for (const Child& child : children_) PinProcess(child.pid, cpus);
}

void PinThisThread(const std::string& cpus) {
  cpu_set_t mask;
  if (ParseCpuList(cpus, &mask)) sched_setaffinity(0, sizeof(mask), &mask);
}

int64_t ThisThreadCpuMicros() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000 + now.tv_nsec / 1000;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinThisThread(std::to_string(cpu));
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      // PAUSE leaves a hyperthread sibling its share of the core.
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

ProcUsage Fleet::Usage() const {
  ProcUsage usage;
  for (const Child& child : children_) {
    usage.cpu_ticks += ProcStatTicks(child.pid);
    usage.voluntary_switches += VoluntarySwitches(child.pid);
  }
  return usage;
}

double Fleet::PeakRssMib() const {
  double kib = 0;
  for (const Child& child : children_) {
    kib += static_cast<double>(StatusField(
        "/proc/" + std::to_string(child.pid) + "/status", "VmHWM:"));
  }
  return kib / 1024.0;
}

std::vector<CpuTicks> ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::vector<CpuTicks> cpus;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::stringstream fields(line);
    std::string name;
    uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
             softirq = 0, steal = 0;
    fields >> name >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal;
    const size_t cpu = std::strtoul(name.c_str() + 3, nullptr, 10);
    if (cpus.size() <= cpu) cpus.resize(cpu + 1);
    cpus[cpu] = CpuTicks{user + nice + system + irq + softirq, idle + iowait,
                         steal};
  }
  return cpus;
}

void AddCpuTicks(const std::vector<CpuTicks>& before,
                 const std::vector<CpuTicks>& after,
                 std::vector<CpuTicks>* sum) {
  const size_t n = std::min(before.size(), after.size());
  if (sum->size() < n) sum->resize(n);
  for (size_t c = 0; c < n; ++c) {
    (*sum)[c].busy += after[c].busy - before[c].busy;
    (*sum)[c].idle += after[c].idle - before[c].idle;
    (*sum)[c].steal += after[c].steal - before[c].steal;
  }
}

std::string CpuTicksJson(const std::vector<CpuTicks>& ticks) {
  std::string out = "{";
  for (size_t c = 0; c < ticks.size(); ++c) {
    if (c > 0) out += ",";
    out += "\"cpu" + std::to_string(c) + "\":{\"busy\":" +
           std::to_string(ticks[c].busy) + ",\"idle\":" +
           std::to_string(ticks[c].idle) + ",\"steal\":" +
           std::to_string(ticks[c].steal) + "}";
  }
  return out + "}";
}

std::string CpuList(pid_t pid) {
  cpu_set_t mask;
  if (sched_getaffinity(pid, sizeof(mask), &mask) != 0) return "?";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &mask)) continue;
    int end = c;
    while (end + 1 < CPU_SETSIZE && CPU_ISSET(end + 1, &mask)) ++end;
    if (!out.empty()) out += ',';
    out += end == c ? std::to_string(c)
                    : std::to_string(c) + "-" + std::to_string(end);
    c = end;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace servebench
