// End-to-end benchmark of join-view maintenance under the paper's three
// methods (naive, auxiliary relation, global index).
//
//   jvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Loads the TPC-R data set into three 4-node ParallelSystems, one per
// maintenance method, registers JV1 and JV2 on each, and drives one seeded,
// single-client, closed-loop operation stream into the three in lockstep
// (one operation to each system in turn). Every view read and, after every
// checkpoint, every view's full contents are checked against the
// benchmark's own hash join (oracle.h). The last line of standard output is
// one JSON object: the end-to-end metrics with --trace 0, the per-layer
// metrics (from the tracer's spans, the per-transaction MaintenanceAnalysis
// and outside timing of each layer's public calls) with --trace 1.
//
// Diagnostics, not used by the benchmark contract: --checkpoint 0 turns the
// per-round checkpoint off, --group-commit 0 sets SystemConfig::group_commit
// to false.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/system.h"
#include "obs/trace.h"
#include "oracle.h"
#include "view/explain.h"
#include "view/view_manager.h"
#include "workload.h"
#include "workload/tpcr.h"

namespace jvbench {
namespace {

using pjvm::MaintenanceMethod;
using pjvm::Tracer;
using pjvm::TraceSpan;

constexpr int kNodes = 4;
constexpr int kMethods = 3;
const char* const kMethodNames[kMethods] = {"naive", "ar", "gi"};
const MaintenanceMethod kMethodEnums[kMethods] = {
    MaintenanceMethod::kNaive, MaintenanceMethod::kAuxRelation,
    MaintenanceMethod::kGlobalIndex};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool checkpoint = true;
  bool group_commit = true;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--checkpoint") {
      args->checkpoint = value != "0";
    } else if (flag == "--group-commit") {
      args->group_commit = value != "0";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Latency quantile of a run: the samples, in time order, are cut into
/// consecutive windows of kWindow; the result is the median over the windows
/// of each window's quantile (one window when there are fewer samples). A
/// burst of host interference then moves the few windows it falls in, not
/// the result; a change in the program moves every window. kWindow leaves at
/// least twenty samples beyond a p99.
constexpr size_t kWindow = 2000;

double WindowedQuantile(const std::vector<double>& samples, double q) {
  if (samples.size() < 2 * kWindow) return Quantile(samples, q);
  std::vector<double> per_window;
  for (size_t lo = 0; lo + kWindow <= samples.size(); lo += kWindow) {
    per_window.push_back(Quantile(
        {samples.begin() + static_cast<long>(lo),
         samples.begin() + static_cast<long>(lo + kWindow)},
        q));
  }
  return Quantile(per_window, 0.5);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv, uint64_t lo,
                   uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (s >= e) continue;
    if (open && s <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = s;
    cur_hi = e;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

bool Named(const TraceSpan& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

/// Per-layer sums for one method over the traced writes.
struct LayerSums {
  uint64_t writes = 0, rows = 0;
  uint64_t dispatch_gap_ns = 0, task_ns = 0, tasks = 0;
  uint64_t commit_ns = 0, nodes_touched = 0;
  uint64_t base_update_ns = 0, structure_update_ns = 0, view_self_ns = 0;
  uint64_t probes = 0, view_rows = 0, structure_writes = 0;
  uint64_t searches = 0, fetches = 0, inserts = 0, descents = 0;
  uint64_t sends = 0, bytes = 0, retries = 0;
  std::vector<double> coverage;  // maintain_txn span / outside clock
};

struct MethodState {
  std::unique_ptr<pjvm::ParallelSystem> sys;
  std::unique_ptr<pjvm::ViewManager> views;
  // Measured (post-warm-up) untraced writes.
  std::vector<double> write_us;
  std::vector<double> write_us_by_kind[3];  // indexed by WriteKind
  uint64_t write_ns = 0, rows = 0;
  double tw = 0;  // CostTracker::TotalWorkload charged by measured writes
  // Traced writes (trace mode only).
  std::vector<double> traced_write_us;
  LayerSums layer;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec, uint64_t main_start_ns)
      : args_(args), spec_(spec), main_start_ns_(main_start_ns) {}

  int Run();

 private:
  void Setup();
  void RunRound(bool measured, bool traced);
  void EndOfRound();
  void Write(int m, const Step& step, bool measured, bool traced);
  void Read(int m, const Step& step, bool measured, bool traced);
  void AttributeWrite(int m, const Step& step, uint64_t t0, uint64_t t1,
                      const pjvm::MaintenanceAnalysis& analysis);
  void Fail(const std::string& why);
  void PrintEndToEnd();
  void PrintPerLayer();
  void PrintResult(const std::vector<std::pair<std::string,
                                               std::pair<double, const char*>>>&
                       metrics);

  const Args args_;
  const WorkloadSpec& spec_;
  const uint64_t main_start_ns_;

  MethodState methods_[kMethods];
  std::unique_ptr<pjvm::TpcrData> data_;
  std::unique_ptr<Oracle> oracle_;
  std::vector<Step> round_;

  double setup_s_ = 0, load_s_ = 0, register_s_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  std::string first_error_;
  std::vector<double> read_us_;
  std::vector<double> pooled_write_us_;  // all methods, in time order
  std::vector<double> checkpoint_ms_;
  // Rows maintained per second of write time in each untraced measured
  // round, pooled over the methods.
  std::vector<double> round_rows_per_s_;
  uint64_t traced_reads_ = 0, read_span_ns_ = 0;
  uint64_t measured_rounds_ = 0;
};

void Bench::Fail(const std::string& why) {
  if (correct_) first_error_ = why;
  correct_ = false;
}

void Bench::Setup() {
  data_ = std::make_unique<pjvm::TpcrData>(
      pjvm::GenerateTpcr(DataConfig(args_.seed)));
  for (int m = 0; m < kMethods; ++m) {
    pjvm::SystemConfig config;
    config.num_nodes = kNodes;
    config.enable_locking = spec_.locking;
    config.group_commit = args_.group_commit;
    MethodState& ms = methods_[m];
    ms.sys = std::make_unique<pjvm::ParallelSystem>(config);
    uint64_t t0 = Tracer::NowNs();
    pjvm::LoadTpcr(ms.sys.get(), *data_).Check();
    uint64_t t1 = Tracer::NowNs();
    ms.views = std::make_unique<pjvm::ViewManager>(ms.sys.get());
    ms.views->RegisterView(pjvm::MakeJv1(), kMethodEnums[m]).Check();
    ms.views->RegisterView(pjvm::MakeJv2(), kMethodEnums[m]).Check();
    uint64_t t2 = Tracer::NowNs();
    load_s_ += Seconds(t1 - t0);
    register_s_ += Seconds(t2 - t1);
  }
  oracle_ = std::make_unique<Oracle>(*data_);
  setup_s_ = Seconds(Tracer::NowNs() - main_start_ns_);
}

void Bench::Write(int m, const Step& step, bool measured, bool traced) {
  MethodState& ms = methods_[m];
  pjvm::DeltaBatch delta = step.delta;
  pjvm::MaintenanceAnalysis analysis;
  if (traced) Tracer::Global().Clear();
  const double tw0 = ms.sys->cost().TotalWorkload();
  const uint64_t t0 = Tracer::NowNs();
  auto result = ms.views->ApplyDelta(std::move(delta),
                                     traced ? &analysis : nullptr);
  const uint64_t t1 = Tracer::NowNs();
  const double tw1 = ms.sys->cost().TotalWorkload();
  ++attempted_;
  if (!result.ok()) {
    ++failed_;
    Fail(std::string(kMethodNames[m]) + " write failed: " +
         result.status().ToString());
    return;
  }
  if (!measured) return;
  if (traced) {
    ms.traced_write_us.push_back(Micros(t1 - t0));
    AttributeWrite(m, step, t0, t1, analysis);
    return;
  }
  ms.write_us.push_back(Micros(t1 - t0));
  pooled_write_us_.push_back(Micros(t1 - t0));
  ms.write_us_by_kind[static_cast<int>(step.kind)].push_back(Micros(t1 - t0));
  ms.write_ns += t1 - t0;
  ms.rows += step.rows;
  ms.tw += tw1 - tw0;
}

void Bench::AttributeWrite(int m, const Step& step, uint64_t t0, uint64_t t1,
                           const pjvm::MaintenanceAnalysis& analysis) {
  LayerSums& l = methods_[m].layer;
  const std::vector<TraceSpan> spans = Tracer::Global().Snapshot();
  Tracer::Global().Clear();
  ++l.writes;
  l.rows += step.rows;

  std::vector<std::pair<uint64_t, uint64_t>> tasks, phases;
  int txn_spans = 0;
  for (const TraceSpan& s : spans) {
    if (s.kind != TraceSpan::Kind::kComplete) continue;
    const uint64_t end = s.start_ns + s.dur_ns;
    if (std::strcmp(s.category, "task") == 0) {
      tasks.emplace_back(s.start_ns, end);
      l.task_ns += s.dur_ns;
      ++l.tasks;
    } else if (std::strcmp(s.category, "phase") == 0) {
      phases.emplace_back(s.start_ns, end);
    } else if (Named(s, "maintain_txn")) {
      ++txn_spans;
      if (s.start_ns < t0 || end > t1) {
        Fail(std::string(kMethodNames[m]) +
             ": maintain_txn span lies outside the client's clock");
      }
      l.coverage.push_back(static_cast<double>(s.dur_ns) /
                           static_cast<double>(t1 - t0));
    } else if (Named(s, "commit_2pc")) {
      l.commit_ns += s.dur_ns;
    } else if (Named(s, "base_update")) {
      l.base_update_ns += s.dur_ns;
    } else if (Named(s, "structure_update")) {
      l.structure_update_ns += s.dur_ns;
    }
  }
  if (txn_spans != 1) {
    Fail(std::string(kMethodNames[m]) + ": expected one maintain_txn span, saw " +
         std::to_string(txn_spans));
  }
  // Dispatch gap: phase time not covered by the phase's per-node tasks.
  for (auto [s, e] : phases) l.dispatch_gap_ns += (e - s) - CoveredNs(tasks, s, e);
  // maintain_view self time: the span minus its phase children.
  for (const TraceSpan& s : spans) {
    if (!Named(s, "maintain_view")) continue;
    const uint64_t end = s.start_ns + s.dur_ns;
    l.view_self_ns += s.dur_ns - CoveredNs(phases, s.start_ns, end);
  }

  l.nodes_touched += static_cast<uint64_t>(analysis.nodes_touched);
  l.probes += analysis.report.probes;
  l.view_rows +=
      analysis.report.view_rows_inserted + analysis.report.view_rows_deleted;
  l.structure_writes += analysis.report.structure_writes;
  for (const pjvm::NodeCounters& c : analysis.per_node) {
    l.searches += c.searches;
    l.fetches += c.fetches;
    l.inserts += c.inserts;
    l.descents += c.descents;
  }
  l.sends += analysis.messages;
  l.bytes += analysis.bytes_sent;
  l.retries += static_cast<uint64_t>(analysis.attempts - 1);

  // The paper's locality properties, per single-row transaction.
  if (step.rows != 1) return;
  const int touched = analysis.nodes_touched;
  const size_t k = analysis.report.view_rows_inserted +
                   analysis.report.view_rows_deleted;
  const std::string what = std::string(kMethodNames[m]) + " " +
                           WriteKindName(step.kind) + " write touched " +
                           std::to_string(touched) + " nodes";
  switch (kMethodEnums[m]) {
    case MaintenanceMethod::kNaive:
      if (step.kind == WriteKind::kCustomer && touched != kNodes) {
        Fail(what + ", expected all " + std::to_string(kNodes));
      }
      break;
    case MaintenanceMethod::kAuxRelation:
      if (touched > 3) Fail(what + ", expected at most 3");
      break;
    case MaintenanceMethod::kGlobalIndex:
      if (touched > static_cast<int>(2 + 2 * k)) {
        Fail(what + ", expected at most 2 + 2K with K = " + std::to_string(k));
      }
      break;
  }
}

void Bench::Read(int m, const Step& step, bool measured, bool traced) {
  pjvm::ParallelSystem& sys = *methods_[m].sys;
  const ReadOp& r = step.read;
  const char* view = r.view == 1 ? "JV1" : "JV2";
  if (traced) Tracer::Global().Clear();
  const uint64_t t0 = Tracer::NowNs();
  uint64_t txn = pjvm::kAutoCommitTxnId;
  if (spec_.locking) txn = sys.Begin();
  auto rows = sys.SelectEq(view, "c.custkey", pjvm::Value{r.custkey}, txn);
  pjvm::Result<std::vector<Row>> lines = std::vector<Row>{};
  if (rows.ok() && r.orderkey >= 0) {
    lines = sys.SelectEq("lineitem", "orderkey", pjvm::Value{r.orderkey}, txn);
  }
  pjvm::Status commit = pjvm::Status::OK();
  if (txn != pjvm::kAutoCommitTxnId) {
    commit = rows.ok() && lines.ok() ? sys.Commit(txn) : sys.Abort(txn);
  }
  const uint64_t t1 = Tracer::NowNs();
  ++attempted_;
  if (!rows.ok() || !lines.ok() || !commit.ok()) {
    ++failed_;
    Fail(std::string(kMethodNames[m]) + " read failed: " +
         (!rows.ok() ? rows.status() : !lines.ok() ? lines.status() : commit)
             .ToString());
    return;
  }
  std::string why;
  const std::vector<Row> expect =
      r.view == 1 ? oracle_->Jv1(r.custkey) : oracle_->Jv2(r.custkey);
  if (!SameMultiset(*rows, expect, &why)) {
    Fail(std::string(kMethodNames[m]) + " " + view + " read of custkey " +
         std::to_string(r.custkey) + ": " + why);
  }
  if (r.orderkey >= 0 &&
      !SameMultiset(*lines, oracle_->Lineitems(r.orderkey), &why)) {
    Fail(std::string(kMethodNames[m]) + " lineitem read of orderkey " +
         std::to_string(r.orderkey) + ": " + why);
  }
  if (!measured) return;
  if (traced) {
    for (const TraceSpan& s : Tracer::Global().Snapshot()) {
      if (std::strcmp(s.category, "client") == 0) read_span_ns_ += s.dur_ns;
    }
    Tracer::Global().Clear();
    ++traced_reads_;
    return;
  }
  read_us_.push_back(Micros(t1 - t0));
}

void Bench::RunRound(bool measured, bool traced) {
  if (traced) Tracer::Global().Enable();
  for (size_t s = 0; s < round_.size(); ++s) {
    const Step& step = round_[s];
    // Rotate which method goes first, so no method always runs right after
    // the same neighbour.
    for (int j = 0; j < kMethods; ++j) {
      const int m = static_cast<int>((s + j) % kMethods);
      if (step.is_write) {
        Write(m, step, measured, traced);
      } else {
        Read(m, step, measured, traced);
      }
    }
    if (step.is_write && !oracle_->Apply(step.delta)) {
      Fail("oracle: a deleted row was not in the benchmark's copy");
    }
  }
  if (traced) {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
}

void Bench::EndOfRound() {
  for (int m = 0; m < kMethods; ++m) {
    if (args_.checkpoint) {
      const uint64_t t0 = Tracer::NowNs();
      pjvm::Status st = methods_[m].sys->Checkpoint();
      checkpoint_ms_.push_back(static_cast<double>(Tracer::NowNs() - t0) / 1e6);
      if (!st.ok()) Fail("checkpoint: " + st.ToString());
    }
    const std::string diff = CompareViews(methods_[m].views.get(), *oracle_);
    if (!diff.empty()) Fail(std::string(kMethodNames[m]) + " " + diff);
  }
}

int Bench::Run() {
  Setup();
  round_ = MakeRound(spec_, *data_, args_.seed);
  const double rss_before = CurrentRssMb();

  // Warm-up round: checked, not measured.
  RunRound(/*measured=*/false, /*traced=*/false);
  EndOfRound();

  const uint64_t start = Tracer::NowNs();
  const double rss_start = CurrentRssMb();
  uint64_t writes = 0;
  // A traced run needs at least one untraced and one traced round.
  while (Seconds(Tracer::NowNs() - start) < args_.seconds ||
         (args_.trace && measured_rounds_ < 2)) {
    // The traced run alternates untraced and traced rounds; the untraced
    // ones give the baseline for the tracing overhead.
    const bool traced = args_.trace && measured_rounds_ % 2 == 1;
    auto round_samples = [&](int m) -> const std::vector<double>& {
      return traced ? methods_[m].traced_write_us : methods_[m].write_us;
    };
    size_t first[kMethods];
    uint64_t rows_before = 0, write_ns_before = 0;
    for (int m = 0; m < kMethods; ++m) {
      first[m] = round_samples(m).size();
      rows_before += methods_[m].rows;
      write_ns_before += methods_[m].write_ns;
    }
    const uint64_t round_start = Tracer::NowNs();
    RunRound(/*measured=*/true, traced);
    EndOfRound();
    if (!traced) {
      uint64_t rows = 0, write_ns = 0;
      for (const MethodState& ms : methods_) {
        rows += ms.rows;
        write_ns += ms.write_ns;
      }
      round_rows_per_s_.push_back(
          static_cast<double>(rows - rows_before) /
          std::max(Seconds(write_ns - write_ns_before), 1e-9));
    }
    // One line per round on standard error: drift within a run shows here.
    std::fprintf(stderr, "jvbench: round %llu %.3f s write p50 us:",
                 static_cast<unsigned long long>(measured_rounds_),
                 Seconds(Tracer::NowNs() - round_start));
    for (int m = 0; m < kMethods; ++m) {
      const std::vector<double>& w = round_samples(m);
      std::fprintf(stderr, " %s %.1f", kMethodNames[m],
                   Quantile({w.begin() + static_cast<long>(first[m]), w.end()}, 0.5));
    }
    std::fprintf(stderr, "\n");
    ++measured_rounds_;
    for (const Step& s : round_) writes += s.is_write ? kMethods : 0;
  }
  const double rss_end = CurrentRssMb();
  for (int m = 0; m < kMethods; ++m) {
    pjvm::Status st = methods_[m].views->CheckAllConsistent();
    if (!st.ok()) Fail(std::string(kMethodNames[m]) + " " + st.ToString());
  }
  std::fprintf(stderr,
               "jvbench: workload=%s seed=%llu rounds=%llu steps/round=%zu "
               "writes=%llu rss_mb: before_warmup=%.1f start=%.1f end=%.1f "
               "(%.3f KB/write)\n",
               spec_.name, static_cast<unsigned long long>(args_.seed),
               static_cast<unsigned long long>(measured_rounds_), round_.size(),
               static_cast<unsigned long long>(writes), rss_before, rss_start,
               rss_end,
               writes > 0 ? (rss_end - rss_start) * 1024.0 /
                                static_cast<double>(writes)
                          : 0.0);
  for (int m = 0; m < kMethods; ++m) {
    std::fprintf(stderr, "jvbench: %s write p50 us by table:", kMethodNames[m]);
    for (int k = 0; k < 3; ++k) {
      std::fprintf(stderr, " %s %.1f", WriteKindName(static_cast<WriteKind>(k)),
                   Quantile(methods_[m].write_us_by_kind[k], 0.5));
    }
    std::fprintf(stderr, "\n");
  }
  if (!correct_) std::fprintf(stderr, "jvbench: INCORRECT: %s\n", first_error_.c_str());
  if (args_.trace) {
    PrintPerLayer();
  } else {
    PrintEndToEnd();
  }
  return 0;
}

void Bench::PrintResult(
    const std::vector<std::pair<std::string, std::pair<double, const char*>>>&
        metrics) {
  std::string out = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value_unit.first);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + value_unit.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Bench::PrintEndToEnd() {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  metrics.push_back({"setup_s", {setup_s_, "s"}});
  for (int m = 0; m < kMethods; ++m) {
    metrics.push_back({std::string(kMethodNames[m]) + ".write_p50_us",
                       {WindowedQuantile(methods_[m].write_us, 0.5), "us"}});
  }
  metrics.push_back(
      {"write_p99_us", {WindowedQuantile(pooled_write_us_, 0.99), "us"}});
  // Median over the rounds: every round is the same mix of operations, so
  // each round's throughput is a sample of the same quantity.
  metrics.push_back({"rows_per_s", {Quantile(round_rows_per_s_, 0.5), "rows/s"}});
  metrics.push_back({"read_p50_us", {WindowedQuantile(read_us_, 0.5), "us"}});
  metrics.push_back({"read_p99_us", {WindowedQuantile(read_us_, 0.99), "us"}});
  for (int m = 0; m < kMethods; ++m) {
    const MethodState& ms = methods_[m];
    metrics.push_back(
        {std::string(kMethodNames[m]) + ".io_per_row",
         {ms.tw / static_cast<double>(std::max<uint64_t>(ms.rows, 1)), "io/row"}});
  }
  for (int m = 0; m < kMethods; ++m) {
    const MethodState& ms = methods_[m];
    std::vector<std::string> tables = {"JV1", "JV2"};
    for (const std::string& t : ms.views->ars().TableNames()) tables.push_back(t);
    for (const std::string& t : ms.views->gis().TableNames()) tables.push_back(t);
    size_t bytes = 0;
    for (const std::string& t : tables) bytes += ms.sys->TableBytes(t);
    metrics.push_back({std::string(kMethodNames[m]) + ".stored_mb",
                       {static_cast<double>(bytes) / (1024.0 * 1024.0), "MB"}});
  }
  metrics.push_back({"peak_rss_mb", {PeakRssMb(), "MB"}});
  PrintResult(metrics);
}

void Bench::PrintPerLayer() {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  double overhead_sum = 0;
  for (int m = 0; m < kMethods; ++m) {
    const MethodState& ms = methods_[m];
    const LayerSums& l = ms.layer;
    const double w = static_cast<double>(std::max<uint64_t>(l.writes, 1));
    const double r = static_cast<double>(std::max<uint64_t>(l.rows, 1));
    const std::string p = std::string(kMethodNames[m]) + ".";
    auto per_write_us = [&](uint64_t ns) { return Micros(ns) / w; };
    auto per_row = [&](uint64_t n) { return static_cast<double>(n) / r; };
    metrics.push_back({p + "engine.dispatch_gap_us", {per_write_us(l.dispatch_gap_ns), "us"}});
    metrics.push_back({p + "engine.task_us", {per_write_us(l.task_ns), "us"}});
    metrics.push_back({p + "engine.tasks_per_write", {static_cast<double>(l.tasks) / w, "count"}});
    metrics.push_back({p + "txn.commit_us", {per_write_us(l.commit_ns), "us"}});
    metrics.push_back({p + "txn.nodes_touched", {static_cast<double>(l.nodes_touched) / w, "count"}});
    metrics.push_back({p + "view.base_update_us", {per_write_us(l.base_update_ns), "us"}});
    metrics.push_back({p + "view.structure_update_us", {per_write_us(l.structure_update_ns), "us"}});
    metrics.push_back({p + "view.maintain_view_us", {per_write_us(l.view_self_ns), "us"}});
    metrics.push_back({p + "view.probes_per_row", {per_row(l.probes), "count"}});
    metrics.push_back({p + "view.view_rows_per_row", {per_row(l.view_rows), "count"}});
    metrics.push_back({p + "view.structure_writes_per_row", {per_row(l.structure_writes), "count"}});
    metrics.push_back({p + "storage.searches_per_row", {per_row(l.searches), "count"}});
    metrics.push_back({p + "storage.fetches_per_row", {per_row(l.fetches), "count"}});
    metrics.push_back({p + "storage.inserts_per_row", {per_row(l.inserts), "count"}});
    metrics.push_back({p + "storage.descents_per_row", {per_row(l.descents), "count"}});
    metrics.push_back({p + "net.sends_per_row", {per_row(l.sends), "count"}});
    metrics.push_back({p + "net.bytes_per_row", {per_row(l.bytes), "bytes"}});
    metrics.push_back({p + "obs.txn_span_coverage", {Quantile(l.coverage, 0.5), "ratio"}});
    overhead_sum += Quantile(ms.traced_write_us, 0.5) / Quantile(ms.write_us, 0.5) - 1.0;
  }
  uint64_t retries = 0;
  for (const MethodState& ms : methods_) retries += ms.layer.retries;
  metrics.push_back({"engine.read_us",
                     {Micros(read_span_ns_) /
                          static_cast<double>(std::max<uint64_t>(traced_reads_, 1)),
                      "us"}});
  metrics.push_back({"engine.load_s", {load_s_, "s"}});
  metrics.push_back({"txn.checkpoint_ms", {Quantile(checkpoint_ms_, 0.5), "ms"}});
  metrics.push_back({"view.register_s", {register_s_, "s"}});
  metrics.push_back({"view.retries", {static_cast<double>(retries), "count"}});
  metrics.push_back({"obs.trace_overhead_pct", {overhead_sum / kMethods * 100.0, "%"}});
  PrintResult(metrics);
}

}  // namespace
}  // namespace jvbench

int main(int argc, char** argv) {
  const uint64_t main_start = pjvm::Tracer::NowNs();
  jvbench::Args args;
  if (!jvbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jvbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--checkpoint 0|1] [--group-commit 0|1]\n");
    return 2;
  }
  const jvbench::WorkloadSpec* spec = jvbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "jvbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  jvbench::Bench bench(args, *spec, main_start);
  return bench.Run();
}
