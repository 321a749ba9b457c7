// The load process's client: one thread, up to four connections, every
// request a copied template and every reply byte-compared.
//
// Sessions are pipelined: each connection carries many sessions, each
// with at most one request outstanding, and the server answers a
// connection in order, so a FIFO of waiting sessions pairs replies with
// requests. Two phase shapes:
//
//   closed  a fixed number of sessions in flight; a finished session is
//           replaced at once (capacity).
//   open    sessions arrive on a seeded schedule at a fixed rate, and each
//           tell waits a seeded think time after its question arrived
//           (latency). With handoffs the tell goes at once and the think
//           time comes after the import, before the next ask, so the
//           session is parked while the user thinks. Times are taken from
//           when a send was due, and the generator's own lateness is
//           reported beside them.
//
// Session order is seeded permuted blocks of the scripts, so every phase
// runs each golden equally often; ids are "s" + a seeded prefix + a
// session number.
#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "scripts.h"

namespace servebench {

struct PhaseConfig {
  bool open_loop = false;
  /// Sessions are admitted for this long (0: until max_sessions).
  double seconds = 0;
  /// Closed: stop admitting after this many sessions (0: time only).
  size_t max_sessions = 0;
  /// Closed: sessions in flight.
  size_t in_flight = 32;
  /// Open: session arrivals per second; each gap is uniform in
  /// [0.5, 1.5] times the mean.
  double rate = 100;
  /// Open: think time before each tell (with handoffs, before each ask
  /// that follows an import), uniform in [min, max] µs.
  double think_min_us = 0;
  double think_max_us = 0;
  /// Keep a span per round trip.
  bool trace = false;
};

/// One client round trip: send to reply.
struct ClientSpan {
  Op op = Op::kOpen;
  uint32_t session = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

struct PhaseResult {
  uint64_t requests = 0;
  uint64_t failed = 0;      ///< error replies, or no reply
  uint64_t mismatched = 0;  ///< replies that differ from the expected bytes
  uint64_t sessions_started = 0;
  uint64_t sessions_completed = 0;
  /// Sessions completed while sessions were still being admitted, and for
  /// how long they were: their ratio is the phase's throughput, without
  /// the ramp-down at the end.
  uint64_t sessions_completed_admitting = 0;
  double admit_seconds = 0;
  std::vector<int64_t> ttfq_us;      ///< open
  std::vector<int64_t> turn_us;      ///< open
  std::vector<int64_t> lateness_us;  ///< open: send time - due time
  std::vector<ClientSpan> spans;     ///< trace
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t asks = 0;
  uint64_t questions = 0;
  uint64_t max_parked = 0;  ///< open: most sessions parked at once
  std::vector<std::string> notes;  ///< first few failures, for the log

  /// Adds another phase's counts and samples to this one.
  void Append(const PhaseResult& other);
};

/// Self-test corruption of replies as they arrive.
struct Fault {
  enum class Kind { kNone, kFlipByte, kSwapPair } kind = Kind::kNone;
  uint64_t after_replies = 0;  ///< corrupt at (or just after) this reply
};

class LoadClient {
 public:
  /// `scripts` must outlive the client. `seed` drives session order, ids,
  /// arrival gaps and think times; `stream` separates the phases of one
  /// run so each draws its own schedule.
  LoadClient(const std::vector<Script>* scripts, uint64_t seed);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  qlearn::common::Status Connect(uint16_t port, size_t connections);
  void Disconnect();

  PhaseResult Run(const PhaseConfig& config, uint64_t stream);
  void set_fault(Fault fault) { fault_ = fault; }

  /// The first `n` script indices and arrival gaps (µs) phase `stream`
  /// would use at `rate`: the seed test compares these across seeds.
  std::vector<int64_t> ScheduleDigest(uint64_t stream, double rate,
                                      size_t n) const;

 private:
  struct Conn;
  struct Session;

  const std::vector<Script>* scripts_;
  uint64_t seed_;
  uint32_t id_prefix_;
  uint32_t next_session_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  Fault fault_;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
