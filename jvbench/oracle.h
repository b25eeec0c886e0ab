// The benchmark's own answer key: a copy of the base rows, kept up to date by
// replaying every delta the benchmark applies, and a hash join that computes
// JV1 and JV2 from that copy. It shares no code with the engine's
// maintenance or recomputation paths, so a view that the engine maintains
// wrongly cannot agree with it by construction.
#ifndef JVBENCH_ORACLE_H_
#define JVBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "view/maintainer.h"
#include "view/view_manager.h"
#include "workload/tpcr.h"

namespace jvbench {

using pjvm::Row;

class Oracle {
 public:
  explicit Oracle(const pjvm::TpcrData& data);

  /// Replays one delta on the copy: deletes, then updates (old -> new),
  /// then inserts, as ViewManager normalizes them. Returns false (and
  /// changes nothing further) if a deleted row is not in the copy.
  bool Apply(const pjvm::DeltaBatch& delta);

  /// JV1 / JV2 rows whose c.custkey is `custkey`, in view column order.
  std::vector<Row> Jv1(int64_t custkey) const;
  std::vector<Row> Jv2(int64_t custkey) const;
  /// The whole view.
  std::vector<Row> Jv1All() const;
  std::vector<Row> Jv2All() const;
  /// lineitem rows with this orderkey.
  std::vector<Row> Lineitems(int64_t orderkey) const;

 private:
  using Index = std::unordered_map<int64_t, std::vector<Row>>;
  static void Add(Index* index, int64_t key, const Row& row);
  static bool Remove(Index* index, int64_t key, const Row& row);
  bool Insert(const std::string& table, const Row& row);
  bool Delete(const std::string& table, const Row& row);
  void JoinKey(int64_t custkey, bool with_lineitem,
               std::vector<Row>* out) const;

  Index customer_by_custkey_;
  Index orders_by_custkey_;
  Index lineitem_by_orderkey_;
};

/// True iff `a` and `b` hold the same rows with the same multiplicities.
/// On a mismatch, `why` names the first differing row.
bool SameMultiset(std::vector<Row> a, std::vector<Row> b, std::string* why);

/// Compares JV1 and JV2 as materialized by `views` with the oracle's join.
/// Returns an empty string when both match, otherwise what differs.
std::string CompareViews(pjvm::ViewManager* views, const Oracle& oracle);

}  // namespace jvbench

#endif  // JVBENCH_ORACLE_H_
