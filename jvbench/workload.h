// Seeded operation streams for the join-view maintenance benchmark.
//
// A workload is a *round*: a fixed sequence of write and read steps
// generated from the seed, in which every write is later undone (each
// inserted row is deleted again, each price update is reverted), so the
// base tables hold the same rows at every round boundary. The benchmark
// repeats the same round until its time is spent; every run therefore
// attempts whole rounds of identical operations, tables neither grow nor
// shrink, and counts charged per row repeat exactly for a given seed.
#ifndef JVBENCH_WORKLOAD_H_
#define JVBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "view/maintainer.h"
#include "workload/tpcr.h"

namespace jvbench {

/// Which base table a write step changes.
enum class WriteKind { kCustomer = 0, kLineitem, kOrders };
const char* WriteKindName(WriteKind kind);

/// One client read: a point read of JV1 or JV2 on c.custkey and, when
/// `orderkey >= 0`, a read of lineitem on its non-partition column orderkey
/// in the same explicit transaction.
struct ReadOp {
  int view = 1;
  int64_t custkey = 0;
  int64_t orderkey = -1;
};

struct Step {
  bool is_write = false;
  WriteKind kind = WriteKind::kCustomer;
  pjvm::DeltaBatch delta;
  /// Base rows the delta names (an update counts once).
  size_t rows = 0;
  ReadOp read;
};

struct WorkloadSpec {
  const char* name;
  /// Rows per write delta.
  int batch_rows;
  /// Insert/delete (or update/revert) pairs per round, indexed by WriteKind.
  int pairs[3];
  /// A group of `reads_per_group` reads follows every `writes_per_group`
  /// writes.
  int writes_per_group;
  int reads_per_group;
  /// Read keys the preceding write touched (otherwise uniform keys).
  bool read_touched_keys;
  /// SystemConfig::enable_locking, and reads as explicit transactions that
  /// also read lineitem on orderkey.
  bool locking;
};

/// The benchmark's workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The TPC-R data set every workload loads (Table 1 shape).
pjvm::TpcrConfig DataConfig(uint64_t seed);

/// One round of `spec` over `data`, deterministic in `seed`.
std::vector<Step> MakeRound(const WorkloadSpec& spec,
                            const pjvm::TpcrData& data, uint64_t seed);

}  // namespace jvbench

#endif  // JVBENCH_WORKLOAD_H_
