// The server side as separate processes, and what /proc says about them.
//
// Fleet starts `qlearnd` (launcher.cc) children: one server for a direct
// topology, or two backend servers behind one router for a routed one.
// Each child gets a fixed CPU mask before exec, dies with the benchmark
// (PR_SET_PDEATHSIG), and is stopped with SIGTERM and reaped by Stop().
#ifndef SERVEBENCH_PROCS_H_
#define SERVEBENCH_PROCS_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace servebench {

struct Child {
  pid_t pid = -1;
  std::string role;  ///< "server", "backend", "router"
  uint16_t port = 0;
};

/// CPU time and voluntary context switches summed over processes.
struct ProcUsage {
  uint64_t cpu_ticks = 0;  ///< utime + stime, /proc/<pid>/stat
  uint64_t voluntary_switches = 0;  ///< over /proc/<pid>/task/*/status
};

class Fleet {
 public:
  Fleet() = default;
  ~Fleet() { Stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Starts one server (routed = false) or two backends and a router, all
  /// restricted to `cpus`.
  qlearn::common::Status Start(const std::string& launcher, bool routed,
                               const std::string& cpus);
  /// SIGTERM, then waits for every child. Idempotent.
  void Stop();

  /// The port clients connect to.
  uint16_t port() const { return children_.empty() ? 0 : children_.back().port; }
  const std::vector<Child>& children() const { return children_; }

  /// Moves every child (all its threads) onto `cpus`.
  void Pin(const std::string& cpus) const;

  ProcUsage Usage() const;
  /// Peak resident set (VmHWM) summed over the children, MiB.
  double PeakRssMib() const;

 private:
  qlearn::common::Status Spawn(const std::string& launcher,
                               std::vector<std::string> args,
                               const std::string& role,
                               const std::string& cpus);
  std::vector<Child> children_;
};

/// Restricts the calling thread to `cpus`.
void PinThisThread(const std::string& cpus);
/// CPU time (user + sys) the calling thread has used, µs.
int64_t ThisThreadCpuMicros();

/// Keeps CPUs from halting while it lives: one SCHED_IDLE thread per CPU
/// that spins. Any other runnable thread on the CPU preempts it at once,
/// so it only takes time nothing else wants. What it removes is the
/// hypervisor's wake-from-halt delay, which follows the host's load and
/// would otherwise set every wait between two processes.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One CPU's /proc/stat ticks.
struct CpuTicks {
  uint64_t busy = 0;   ///< user nice system irq softirq
  uint64_t idle = 0;   ///< idle iowait
  uint64_t steal = 0;  ///< taken by the hypervisor
};
/// Per-CPU ticks, indexed by CPU number.
std::vector<CpuTicks> ReadCpuTicks();
/// Adds `after - before` per CPU to `sum`.
void AddCpuTicks(const std::vector<CpuTicks>& before,
                 const std::vector<CpuTicks>& after,
                 std::vector<CpuTicks>* sum);
/// {"cpuN":{"busy":b,"idle":i,"steal":s},...}
std::string CpuTicksJson(const std::vector<CpuTicks>& ticks);
/// The CPU list of a process's affinity mask, e.g. "0-3".
std::string CpuList(pid_t pid);
std::string CpuModel();

}  // namespace servebench

#endif  // SERVEBENCH_PROCS_H_
