// Self-test of the benchmark's correctness check. It shows that
//  - the oracle agrees with the engine on the benchmark's TPC-R data set under every
//    maintenance method after a round of the benchmark's operations,
//  - a round leaves the base tables as it found them (the property that
//    keeps repeated rounds level), and
//  - the comparison fails when one row of the oracle's copy is perturbed,
//    both for a whole view and for a point read.
// Exits 0 when every expectation holds.

#include <cstdio>
#include <string>

#include "oracle.h"
#include "workload.h"

namespace jvbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void RunMethod(pjvm::MaintenanceMethod method, const char* name) {
  const pjvm::TpcrData data = pjvm::GenerateTpcr(DataConfig(7));

  pjvm::SystemConfig sys_config;
  sys_config.num_nodes = 4;
  pjvm::ParallelSystem sys(sys_config);
  pjvm::LoadTpcr(&sys, data).Check();
  pjvm::ViewManager views(&sys);
  views.RegisterView(pjvm::MakeJv1(), method).Check();
  views.RegisterView(pjvm::MakeJv2(), method).Check();
  Oracle oracle(data);
  const std::string prefix = std::string(name) + ": ";
  Expect(CompareViews(&views, oracle).empty(), prefix + "loaded views match");

  // Half a round of single-row point_stream steps, applied to both sides.
  const WorkloadSpec* spec = FindWorkload("point_stream");
  const std::vector<Step> round = MakeRound(*spec, data, 11);
  bool applied = true;
  for (size_t i = 0; i < round.size() / 2; ++i) {
    if (!round[i].is_write) continue;
    applied &= views.ApplyDelta(round[i].delta).ok();
    applied &= oracle.Apply(round[i].delta);
  }
  Expect(applied, prefix + "deltas apply");
  const std::string diff = CompareViews(&views, oracle);
  Expect(diff.empty(), prefix + "views match after deltas " + diff);

  // Perturb one customer row of the oracle's copy only.
  const pjvm::Row& victim = data.customer[17];
  pjvm::Row changed = victim;
  changed[1] = pjvm::Value{changed[1].AsDouble() + 1.0};
  pjvm::DeltaBatch perturb;
  perturb.table = "customer";
  perturb.updates.emplace_back(victim, changed);
  Expect(oracle.Apply(perturb), prefix + "perturbation applies to the copy");
  Expect(!CompareViews(&views, oracle).empty(),
         prefix + "whole-view comparison detects the perturbed row");
  const int64_t key = victim[0].AsInt64();
  auto read = sys.SelectEq("JV2", "c.custkey", pjvm::Value{key});
  Expect(read.ok() && !SameMultiset(*read, oracle.Jv2(key), nullptr),
         prefix + "point-read comparison detects the perturbed row");
}

void RoundIsLevel() {
  const pjvm::TpcrData data = pjvm::GenerateTpcr(DataConfig(3));
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Oracle oracle(data);
    const std::vector<pjvm::Row> jv1 = oracle.Jv1All(), jv2 = oracle.Jv2All();
    bool applied = true;
    for (const Step& step : MakeRound(spec, data, 5)) {
      if (step.is_write) applied &= oracle.Apply(step.delta);
    }
    Expect(applied && SameMultiset(oracle.Jv1All(), jv1, nullptr) &&
               SameMultiset(oracle.Jv2All(), jv2, nullptr),
           std::string(spec.name) + ": a round leaves the views as it found them");
  }
}

}  // namespace
}  // namespace jvbench

int main() {
  jvbench::RunMethod(pjvm::MaintenanceMethod::kNaive, "naive");
  jvbench::RunMethod(pjvm::MaintenanceMethod::kAuxRelation, "ar");
  jvbench::RunMethod(pjvm::MaintenanceMethod::kGlobalIndex, "gi");
  jvbench::RoundIsLevel();
  std::printf("%d failure(s)\n", jvbench::failures);
  return jvbench::failures == 0 ? 0 : 1;
}
