// servebench: the repository's serving benchmark (the load process).
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              --golden-dir DIR --launcher PATH --out-dir DIR
//              [--revision SHA]
//   servebench --selftest --golden-dir DIR --launcher PATH
//
// A run builds the expected frames of its workload's goldens, then drives
// alternating blocks of a capacity phase and a latency phase from this
// process and prints the end-to-end metrics. Before each block it sets the
// server side up afresh as separate qlearnd processes, ending with a
// warm-up of validated sessions. With --trace 1 it instead prints the per-layer metrics, from
// client spans around each round trip and the in-process layer replay
// (replay.h). The last stdout line is the result object; a run record goes
// before it and into --out-dir. See README.md.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "net/server.h"
#include "procs.h"
#include "replay.h"
#include "scripts.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

struct Workload {
  const char* name;
  std::vector<std::string> goldens;
  bool handoff;  ///< export + import after every tell
  bool routed;   ///< router in front of two backends
  size_t warmup_sessions;  ///< validated sessions ending each set-up
  size_t in_flight;        ///< capacity phase
  double rate;             ///< latency phase, sessions/s
  double think_min_us;
  double think_max_us;
};

const std::vector<std::string> kJoinChain = {
    "e6_join", "e12_chain", "s_join_random", "s_join_lattice",
    "s_chain_random"};
const std::vector<std::string> kTwigPath = {
    "e1_twig",       "e4_twig_ambiguity", "s_twig_random",
    "e7_path",       "s_path_random",     "s_path_workload"};

std::vector<std::string> AllGoldens() {
  std::vector<std::string> all = kJoinChain;
  all.insert(all.end(), kTwigPath.begin(), kTwigPath.end());
  return all;
}

// README.md says why each workload exists. Warm-ups are about 0.3 s of
// serving; latency rates are 10-20 % of each workload's capacity on a
// 4-vCPU box (wire ~9k, engine ~1.1k, hibernate ~500, routed ~4k
// sessions/s), so the latency phase sees a lightly loaded server.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"wire", kJoinChain, false, false, 3000, 64, 1000, 200, 2000},
      {"engine", kTwigPath, false, false, 400, 16, 150, 1000, 5000},
      {"hibernate", AllGoldens(), true, false, 300, 32, 100, 20000, 80000},
      {"routed", kJoinChain, false, true, 2000, 64, 600, 200, 2000},
  };
  return workloads;
}

// Placement. Capacity: the load thread alone on CPU 0, the server side
// (one process, or router and backends) on CPU 1. Latency: everything on
// CPU 1, so a round trip is a chain of context switches on one core. Both
// CPUs carry IdleSpinners for the whole run.
constexpr const char* kCapacityLoadCpus = "0";
constexpr const char* kCapacityServerCpus = "1";
constexpr const char* kLatencyCpus = "1";
const std::vector<int> kSpinCpus = {0, 1};

constexpr size_t kBlocks = 6;
constexpr size_t kMaxSpansWritten = 100000;
constexpr size_t kConnections = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string golden_dir;
  std::string launcher;
  std::string out_dir;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--golden-dir") args->golden_dir = value;
    else if (flag == "--launcher") args->launcher = value;
    else if (flag == "--out-dir") args->out_dir = value;
    else if (flag == "--revision") args->revision = value;
    else return false;
  }
  return !args->golden_dir.empty() && !args->launcher.empty() &&
         (args->selftest || (!args->workload.empty() && args->seconds > 0));
}

/// Applies the capacity or the latency placement.
void Place(const Fleet& fleet, bool latency) {
  fleet.Pin(latency ? kLatencyCpus : kCapacityServerCpus);
  PinThisThread(latency ? kLatencyCpus : kCapacityLoadCpus);
}

/// Requests sent, and how many failed or came back wrong, over a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  std::vector<std::string> notes;

  void Add(const PhaseResult& phase) {
    attempted += phase.requests;
    failed += phase.failed;
    mismatched += phase.mismatched;
    for (const std::string& note : phase.notes) {
      if (notes.size() < 8) notes.push_back(note);
    }
  }
  bool correct() const { return failed == 0 && mismatched == 0; }
};

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Client round-trip times (µs) by op.
std::map<Op, std::vector<double>> RttByOp(const PhaseResult& phase) {
  std::map<Op, std::vector<double>> rtt;
  for (const ClientSpan& span : phase.spans) {
    rtt[span.op].push_back(static_cast<double>(span.end_us - span.start_us));
  }
  return rtt;
}

/// Request-weighted mean over ops of `diff(op)`.
template <typename Diff>
double WeightedOverOps(const std::map<Op, std::vector<double>>& rtt,
                       Diff&& diff) {
  double total = 0, weight = 0;
  for (const auto& [op, values] : rtt) {
    total += diff(op) * static_cast<double>(values.size());
    weight += static_cast<double>(values.size());
  }
  return weight > 0 ? total / weight : 0;
}

class Run {
 public:
  Run(const Args& args, const Workload& workload)
      : args_(args), workload_(workload) {}

  int Main();

 private:
  qlearn::common::Status SetUp(LoadClient* client, Fleet* fleet,
                               bool routed, uint64_t stream);
  void EndToEnd(LoadClient* client, Fleet* fleet, std::string* metrics,
                std::string* extra);
  void Traced(LoadClient* client, Fleet* fleet, std::string* metrics,
              std::string* extra);
  std::string Record(const Fleet& fleet, uint64_t steal) const;

  PhaseConfig Capacity(double seconds) const {
    PhaseConfig config;
    config.seconds = seconds;
    config.in_flight = workload_.in_flight;
    return config;
  }
  PhaseConfig Latency(double seconds, bool trace) const {
    PhaseConfig config;
    config.open_loop = true;
    config.seconds = seconds;
    config.rate = workload_.rate;
    config.think_min_us = workload_.think_min_us;
    config.think_max_us = workload_.think_max_us;
    config.trace = trace;
    return config;
  }

  const Args& args_;
  const Workload& workload_;
  std::vector<Script> scripts_;
  Tally tally_;
  std::vector<Span> replay_spans_;
  std::vector<ClientSpan> client_spans_;
  std::string phase_ticks_ = "{}";  ///< per-CPU /proc/stat ticks per phase
  std::string blocks_ = "{}";       ///< each block's figures, for diagnosis
};

qlearn::common::Status Run::SetUp(LoadClient* client, Fleet* fleet,
                                  bool routed, uint64_t stream) {
  PinThisThread(kCapacityLoadCpus);
  QLEARN_RETURN_IF_ERROR(
      fleet->Start(args_.launcher, routed, kCapacityServerCpus));
  QLEARN_RETURN_IF_ERROR(client->Connect(fleet->port(), kConnections));
  PhaseConfig warm;
  warm.max_sessions = workload_.warmup_sessions;
  warm.in_flight = workload_.in_flight;
  tally_.Add(client->Run(warm, stream));
  return qlearn::common::Status::OK();
}

void Run::EndToEnd(LoadClient* client, Fleet* fleet, std::string* metrics,
                   std::string* extra) {
  // The phases alternate in kBlocks blocks, and each block has a set-up of
  // its own, so each measure samples the whole run: the host's slow and
  // fast periods last seconds, and spreading a measure over the run
  // averages more of them.
  std::vector<double> setup_s;
  double rss_mib = 0;
  PhaseResult capacity, latency;
  std::vector<CpuTicks> capacity_ticks, latency_ticks;
  uint64_t server_ticks = 0;
  int64_t capacity_wall_us = 0, load_cpu_us = 0;
  std::vector<double> block_rate, block_cpu_us, block_ttfq, block_turn,
      block_server_util, block_load_util;
  const double us_per_tick = 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  const double block_seconds = args_.seconds / 2 / kBlocks;
  for (size_t b = 0; b < kBlocks; ++b) {
    rss_mib = std::max(rss_mib, fleet->PeakRssMib());
    // The previous set-up's processes are stopped before the clock starts.
    client->Disconnect();
    fleet->Stop();
    const int64_t begin = NowMicros();
    const auto status = SetUp(client, fleet, workload_.routed, 100 + b);
    if (!status.ok()) {
      tally_.failed += 1;
      tally_.notes.push_back(status.ToString());
      return;
    }
    setup_s.push_back(static_cast<double>(NowMicros() - begin) / 1e6);

    Place(*fleet, false);
    const auto before = ReadCpuTicks();
    const uint64_t ticks_before = fleet->Usage().cpu_ticks;
    const int64_t wall_before = NowMicros();
    const int64_t load_before = ThisThreadCpuMicros();
    const PhaseResult closed = client->Run(Capacity(block_seconds), 1 + 2 * b);
    const int64_t load_us = ThisThreadCpuMicros() - load_before;
    const int64_t wall_us = NowMicros() - wall_before;
    const uint64_t ticks = fleet->Usage().cpu_ticks - ticks_before;
    const auto between = ReadCpuTicks();
    Place(*fleet, true);
    const PhaseResult open = client->Run(Latency(block_seconds, false), 2 + 2 * b);
    AddCpuTicks(before, between, &capacity_ticks);
    AddCpuTicks(between, ReadCpuTicks(), &latency_ticks);
    server_ticks += ticks;
    capacity_wall_us += wall_us;
    load_cpu_us += load_us;
    // Busy shares of the capacity phase's wall time: the server side's
    // CPU (it has one CPU) and the load thread's own CPU time.
    block_server_util.push_back(static_cast<double>(ticks) * us_per_tick /
                                static_cast<double>(wall_us));
    block_load_util.push_back(static_cast<double>(load_us) /
                              static_cast<double>(wall_us));
    block_rate.push_back(static_cast<double>(closed.sessions_completed_admitting) /
                         closed.admit_seconds);
    block_cpu_us.push_back(static_cast<double>(ticks) * us_per_tick /
                           static_cast<double>(closed.sessions_completed));
    block_ttfq.push_back(Median(open.ttfq_us));
    block_turn.push_back(Median(open.turn_us));
    capacity.Append(closed);
    latency.Append(open);
  }
  tally_.Add(capacity);
  tally_.Add(latency);
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double value : values) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%s%.6g", out.size() > 1 ? "," : "",
                    value);
      out += buffer;
    }
    return out + "]";
  };
  blocks_ = "{\"sessions_per_s\":" + list(block_rate) +
            ",\"cpu_us_per_session\":" + list(block_cpu_us) +
            ",\"ttfq_p50_us\":" + list(block_ttfq) +
            ",\"turn_p50_us\":" + list(block_turn) +
            ",\"server_util\":" + list(block_server_util) +
            ",\"load_util\":" + list(block_load_util) + "}";
  phase_ticks_ = "{\"capacity\":" + CpuTicksJson(capacity_ticks) +
                 ",\"latency\":" + CpuTicksJson(latency_ticks) + "}";

  const double sessions = static_cast<double>(capacity.sessions_completed);
  AppendMetric("sessions_per_s",
               static_cast<double>(capacity.sessions_completed_admitting) /
                   capacity.admit_seconds,
               "1/s", metrics);
  AppendMetric("cpu_us_per_session",
               static_cast<double>(server_ticks) * us_per_tick / sessions, "us",
               metrics);
  AppendMetric("ttfq_p50_us", Median(latency.ttfq_us), "us", metrics);
  AppendMetric("turn_p50_us", Median(latency.turn_us), "us", metrics);
  AppendMetric("server_rss_mib", std::max(rss_mib, fleet->PeakRssMib()),
               "MiB", metrics);
  AppendMetric("setup_s", Median(setup_s), "s", metrics);

  AppendMetric("ttfq_p99_us", Quantile(latency.ttfq_us, 0.99), "us", extra);
  AppendMetric("ttfq_samples", static_cast<double>(latency.ttfq_us.size()),
               "count", extra);
  AppendMetric("turn_p99_us", Quantile(latency.turn_us, 0.99), "us", extra);
  AppendMetric("turn_samples", static_cast<double>(latency.turn_us.size()),
               "count", extra);
  AppendMetric("req_per_s",
               static_cast<double>(capacity.requests) / capacity.admit_seconds,
               "1/s", extra);
  AppendMetric("capacity_sessions", sessions, "count", extra);
  AppendMetric("capacity_server_util",
               static_cast<double>(server_ticks) * us_per_tick /
                   static_cast<double>(capacity_wall_us),
               "share", extra);
  AppendMetric("capacity_load_util",
               static_cast<double>(load_cpu_us) /
                   static_cast<double>(capacity_wall_us),
               "share", extra);
  AppendMetric("latency_max_parked_sessions",
               static_cast<double>(latency.max_parked), "count", extra);
  AppendMetric("latency_rate", workload_.rate, "1/s", extra);
  AppendMetric("generator_lateness_p50_us", Median(latency.lateness_us), "us",
               extra);
  AppendMetric("generator_lateness_max_us", Quantile(latency.lateness_us, 1.0),
               "us", extra);
  uint64_t late = 0;
  for (int64_t lateness : latency.lateness_us) late += lateness > 100 ? 1 : 0;
  AppendMetric("generator_sends_late_over_100us", static_cast<double>(late),
               "count", extra);
  AppendMetric("generator_sends", static_cast<double>(latency.lateness_us.size()),
               "count", extra);
  for (size_t k = 0; k < setup_s.size(); ++k) {
    AppendMetric("setup_s." + std::to_string(k), setup_s[k], "s", extra);
  }
}

void Run::Traced(LoadClient* client, Fleet* fleet, std::string* metrics,
                 std::string* extra) {
  const auto fail = [&](const qlearn::common::Status& status) {
    tally_.failed += 1;
    tally_.notes.push_back(status.ToString());
  };
  if (auto status = SetUp(client, fleet, workload_.routed, 100); !status.ok()) {
    return fail(status);
  }
  const double slice = args_.seconds / 8;

  // Counts at the wire boundary, over a capacity phase.
  Place(*fleet, false);
  const ProcUsage before = fleet->Usage();
  const PhaseResult capacity = client->Run(Capacity(slice), 1);
  const ProcUsage after = fleet->Usage();
  tally_.Add(capacity);
  const double requests = static_cast<double>(capacity.requests);
  AppendMetric("server.vcsw_per_req",
               static_cast<double>(after.voluntary_switches -
                                   before.voluntary_switches) / requests,
               "1/req", metrics);
  AppendMetric("net.bytes_per_request",
               static_cast<double>(capacity.bytes_sent) / requests, "bytes",
               metrics);
  AppendMetric("net.bytes_per_response",
               static_cast<double>(capacity.bytes_received) / requests, "bytes",
               metrics);
  AppendMetric("service.questions_per_ask",
               static_cast<double>(capacity.questions) /
                   static_cast<double>(capacity.asks),
               "count", metrics);

  // The same latency phase untraced and traced: the difference is the
  // cost of the client spans.
  Place(*fleet, true);
  const PhaseResult untraced = client->Run(Latency(slice, false), 2);
  const PhaseResult traced = client->Run(Latency(slice, true), 2);
  tally_.Add(untraced);
  tally_.Add(traced);
  client_spans_ = traced.spans;
  AppendMetric("trace.overhead.ttfq_p50_us",
               Median(traced.ttfq_us) - Median(untraced.ttfq_us), "us", metrics);
  AppendMetric("trace.overhead.turn_p50_us",
               Median(traced.turn_us) - Median(untraced.turn_us), "us", metrics);
  auto rtt = RttByOp(traced);

  // The bypass twin: the same phase through the other topology.
  {
    Fleet other;
    LoadClient other_client(&scripts_, args_.seed);
    if (auto status = SetUp(&other_client, &other, !workload_.routed, 100);
        !status.ok()) {
      return fail(status);
    }
    Place(other, true);
    const PhaseResult twin = other_client.Run(Latency(slice, true), 2);
    tally_.Add(twin);
    auto twin_rtt = RttByOp(twin);
    const auto& routed = workload_.routed ? rtt : twin_rtt;
    const auto& direct = workload_.routed ? twin_rtt : rtt;
    AppendMetric("net.router.hop_us", WeightedOverOps(routed, [&](Op op) {
                   return Median(routed.at(op)) -
                          (direct.count(op) ? Median(direct.at(op)) : 0);
                 }),
                 "us", metrics);
  }

  // Workloads without handoffs get their export/import round trips from a
  // short probe of the same goldens with handoffs.
  ReplayResult replay = ReplayLayers(scripts_, args_.seed, 2 * slice);
  std::map<Op, double> server_us = replay.server_us;
  if (!workload_.handoff) {
    auto handoff_scripts =
        BuildScripts(args_.golden_dir, workload_.goldens, true);
    if (!handoff_scripts.ok()) return fail(handoff_scripts.status());
    LoadClient probe(&handoff_scripts.value(), args_.seed);
    if (auto status = probe.Connect(fleet->port(), kConnections); !status.ok()) {
      return fail(status);
    }
    Place(*fleet, true);
    const PhaseResult handoffs = probe.Run(Latency(slice / 2, true), 3);
    tally_.Add(handoffs);
    auto probe_rtt = RttByOp(handoffs);
    for (Op op : {Op::kExport, Op::kImport}) rtt[op] = probe_rtt[op];
    const ReplayResult probe_replay =
        ReplayLayers(handoff_scripts.value(), args_.seed, 0);
    replay.mismatched += probe_replay.mismatched;
    for (Op op : {Op::kExport, Op::kImport}) {
      server_us[op] = probe_replay.server_us.at(op);
    }
  }
  for (Op op : {Op::kOpen, Op::kAsk, Op::kTell, Op::kClose, Op::kExport,
                Op::kImport}) {
    const std::string name = OpName(op);
    AppendMetric("net.rtt." + name + "_us", Median(rtt[op]), "us", metrics);
    AppendMetric("net.unaccounted_us." + name,
                 Median(rtt[op]) - server_us[op], "us", metrics);
  }
  rtt.erase(Op::kExport);
  rtt.erase(Op::kImport);
  if (workload_.handoff) rtt = RttByOp(traced);
  AppendMetric("net.unaccounted_us", WeightedOverOps(rtt, [&](Op op) {
                 return Median(rtt.at(op)) - server_us[op];
               }),
               "us", metrics);

  tally_.mismatched += replay.mismatched;
  tally_.attempted += replay.steps;
  for (const auto& [name, value] : replay.metrics) {
    const bool bytes = name.find("bytes") != std::string::npos;
    AppendMetric(name, value, bytes ? "bytes" : "us", metrics);
  }
  replay_spans_ = std::move(replay.spans);
  AppendMetric("replay_steps", static_cast<double>(replay.steps), "count",
               extra);
  AppendMetric("traced_requests", static_cast<double>(traced.requests),
               "count", extra);
}

std::string Run::Record(const Fleet& fleet, uint64_t steal) const {
  std::string masks = "{\"load\":" + Quote(CpuList(getpid()));
  for (const Child& child : fleet.children()) {
    masks += "," + Quote(child.role + "." + std::to_string(child.pid)) + ":" +
             Quote(CpuList(child.pid));
  }
  masks += "}";
  return std::string("{") + "\"workload\":" + Quote(workload_.name) +
         ",\"seed\":" + std::to_string(args_.seed) +
         ",\"seconds\":" + std::to_string(args_.seconds) +
         ",\"trace\":" + (args_.trace ? "1" : "0") +
         ",\"cpu_model\":" + Quote(CpuModel()) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"build_type\":" + Quote(SERVEBENCH_BUILD_TYPE) +
         ",\"revision\":" + Quote(args_.revision) +
         ",\"placement\":{\"capacity\":{\"load\":" + Quote(kCapacityLoadCpus) +
         ",\"server_side\":" + Quote(kCapacityServerCpus) +
         "},\"latency\":{\"load\":" + Quote(kLatencyCpus) +
         ",\"server_side\":" + Quote(kLatencyCpus) +
         "},\"idle_spinners\":\"0,1\"}" +
         ",\"cpu_masks_at_end\":" + masks +
         ",\"server_reactors\":" +
         std::to_string(qlearn::net::ServerOptions{}.reactors) +
         ",\"server_processes\":" + std::to_string(fleet.children().size()) +
         ",\"load_threads\":1,\"connections\":" + std::to_string(kConnections) +
         ",\"capacity_in_flight\":" + std::to_string(workload_.in_flight) +
         ",\"latency_rate\":" + std::to_string(workload_.rate) +
         ",\"steal_ticks\":" + std::to_string(steal) +
         ",\"cpu_ticks_by_phase\":" + phase_ticks_ + "}";
}

int Run::Main() {
  const auto ticks_before = ReadCpuTicks();
  auto scripts = BuildScripts(args_.golden_dir, workload_.goldens,
                              workload_.handoff);
  if (!scripts.ok()) {
    std::fprintf(stderr, "servebench: %s\n", scripts.status().ToString().c_str());
    return 1;
  }
  scripts_ = std::move(scripts).value();

  const IdleSpinners spinners(kSpinCpus);
  Fleet fleet;
  LoadClient client(&scripts_, args_.seed);
  std::string metrics, extra;
  if (args_.trace) {
    Traced(&client, &fleet, &metrics, &extra);
  } else {
    EndToEnd(&client, &fleet, &metrics, &extra);
  }
  AppendMetric("requests_attempted", static_cast<double>(tally_.attempted),
               "count", &extra);
  AppendMetric("requests_failed", static_cast<double>(tally_.failed), "count",
               &extra);
  AppendMetric("requests_mismatched", static_cast<double>(tally_.mismatched),
               "count", &extra);
  uint64_t steal = 0;
  const auto ticks_after = ReadCpuTicks();
  for (size_t c = 0; c < ticks_before.size() && c < ticks_after.size(); ++c) {
    steal += ticks_after[c].steal - ticks_before[c].steal;
  }
  const std::string record = Record(fleet, steal);
  client.Disconnect();
  fleet.Stop();

  if (!args_.out_dir.empty()) {
    const std::string stem = args_.out_dir + "/" + workload_.name + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             (args_.trace ? "1" : "0");
    std::ofstream(stem + ".record.json")
        << "{\"record\":" << record << ",\"metrics\":{" << metrics
        << "},\"extra\":{" << extra << "},\"blocks\":" << blocks_ << "}\n";
    if (args_.trace) {
      // The replay's spans are capped: a few seconds of replay makes
      // millions, and the first ones show the same structure.
      std::ofstream spans(stem + ".spans.jsonl");
      if (replay_spans_.size() > kMaxSpansWritten) {
        replay_spans_.resize(kMaxSpansWritten);
      }
      for (const Span& span : replay_spans_) {
        spans << "{\"name\":\"" << span.name << "\",\"start_ns\":"
              << span.start_ns << ",\"end_ns\":" << span.end_ns
              << ",\"parent\":" << span.parent << ",\"session\":"
              << span.session << ",\"step\":" << span.step << "}\n";
      }
      for (const ClientSpan& span : client_spans_) {
        spans << "{\"name\":\"net.rtt." << OpName(span.op)
              << "\",\"start_ns\":" << span.start_us * 1000
              << ",\"end_ns\":" << span.end_us * 1000
              << ",\"parent\":-1,\"session\":" << span.session << "}\n";
      }
    }
  }
  for (const std::string& note : tally_.notes) {
    std::fprintf(stderr, "servebench: %s\n", note.c_str());
  }
  std::printf("record %s\n", record.c_str());
  std::printf("extra {%s}\n", extra.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      tally_.correct() ? "true" : "false",
      static_cast<unsigned long long>(tally_.attempted),
      static_cast<unsigned long long>(tally_.failed), metrics.c_str());
  return 0;
}

// The validator and seed self-test: a clean run, a flipped byte and a
// swapped pair of replies, and two seeds.
int SelfTest(const Args& args) {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (bool handoff : {false, true}) {
    auto scripts = BuildScripts(args.golden_dir, AllGoldens(), handoff);
    check(scripts.ok(), std::string("reference frames match the goldens") +
                            (handoff ? " (with handoffs)" : ""));
    if (!scripts.ok()) return 1;
    Fleet fleet;
    if (!fleet.Start(args.launcher, false, kCapacityServerCpus).ok()) {
      return 1;
    }
    const auto run = [&](uint64_t seed, Fault fault, const PhaseConfig& config) {
      LoadClient client(&scripts.value(), seed);
      client.set_fault(fault);
      Tally tally;
      if (!client.Connect(fleet.port(), kConnections).ok()) {
        tally.failed = 1;
        return tally;
      }
      tally.Add(client.Run(config, 1));
      return tally;
    };
    PhaseConfig closed;
    closed.max_sessions = 200;
    closed.in_flight = 16;
    const std::string suffix = handoff ? " (with handoffs)" : "";
    const Tally clean = run(1, {}, closed);
    check(clean.correct() && clean.attempted > 0,
          "clean run validates: " + std::to_string(clean.attempted) +
              " requests, 0 mismatches" + suffix);
    const Tally flipped = run(1, {Fault::Kind::kFlipByte, 100}, closed);
    check(flipped.mismatched >= 1 && !flipped.correct(),
          "a flipped byte is a mismatch and fails the run (" +
              std::to_string(flipped.mismatched) + " mismatched)" + suffix);
    const Tally swapped = run(1, {Fault::Kind::kSwapPair, 100}, closed);
    check(swapped.mismatched >= 1 && !swapped.correct(),
          "a swapped pair of replies is a mismatch and fails the run (" +
              std::to_string(swapped.mismatched) + " mismatched)" + suffix);

    PhaseConfig open;
    open.open_loop = true;
    open.seconds = 0.5;
    open.rate = 200;
    open.think_max_us = 1000;
    LoadClient one(&scripts.value(), 1), two(&scripts.value(), 2);
    check(one.ScheduleDigest(2, 200, 64) != two.ScheduleDigest(2, 200, 64),
          "seeds 1 and 2 give different session orders, ids and arrivals" +
              suffix);
    check(one.ScheduleDigest(2, 200, 64) ==
              LoadClient(&scripts.value(), 1).ScheduleDigest(2, 200, 64),
          "seed 1 reproduces its schedule" + suffix);
    for (uint64_t seed : {1, 2}) {
      const Tally seeded = run(seed, {}, open);
      check(seeded.correct() && seeded.attempted > 0,
            "seed " + std::to_string(seed) + " validates: " +
                std::to_string(seeded.attempted) + " requests, 0 mismatches" +
                suffix);
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --golden-dir DIR --launcher PATH "
                 "[--out-dir DIR] [--revision SHA]\n"
                 "       servebench --selftest --golden-dir DIR "
                 "--launcher PATH\n");
    return 2;
  }
  if (args.selftest) return SelfTest(args);
  for (const Workload& workload : Workloads()) {
    if (args.workload == workload.name) return Run(args, workload).Main();
  }
  std::fprintf(stderr, "servebench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
