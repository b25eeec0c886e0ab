#include "oracle.h"

#include <algorithm>

namespace jvbench {

namespace {

// Column positions in the TPC-R schemas (workload/tpcr.h).
constexpr int kCustCustkey = 0, kCustAcctbal = 1;
constexpr int kOrdOrderkey = 0, kOrdCustkey = 1, kOrdTotalprice = 2;
constexpr int kLineOrderkey = 0, kLineExtprice = 3, kLineDiscount = 4;

}  // namespace

Oracle::Oracle(const pjvm::TpcrData& data) {
  for (const Row& r : data.customer) Insert("customer", r);
  for (const Row& r : data.orders) Insert("orders", r);
  for (const Row& r : data.lineitem) Insert("lineitem", r);
}

void Oracle::Add(Index* index, int64_t key, const Row& row) {
  (*index)[key].push_back(row);
}

bool Oracle::Remove(Index* index, int64_t key, const Row& row) {
  auto it = index->find(key);
  if (it == index->end()) return false;
  std::vector<Row>& rows = it->second;
  auto pos = std::find(rows.begin(), rows.end(), row);
  if (pos == rows.end()) return false;
  *pos = std::move(rows.back());
  rows.pop_back();
  if (rows.empty()) index->erase(it);
  return true;
}

bool Oracle::Insert(const std::string& table, const Row& row) {
  if (table == "customer") {
    Add(&customer_by_custkey_, row[kCustCustkey].AsInt64(), row);
  } else if (table == "orders") {
    Add(&orders_by_custkey_, row[kOrdCustkey].AsInt64(), row);
  } else if (table == "lineitem") {
    Add(&lineitem_by_orderkey_, row[kLineOrderkey].AsInt64(), row);
  } else {
    return false;
  }
  return true;
}

bool Oracle::Delete(const std::string& table, const Row& row) {
  if (table == "customer") {
    return Remove(&customer_by_custkey_, row[kCustCustkey].AsInt64(), row);
  }
  if (table == "orders") {
    return Remove(&orders_by_custkey_, row[kOrdCustkey].AsInt64(), row);
  }
  if (table == "lineitem") {
    return Remove(&lineitem_by_orderkey_, row[kLineOrderkey].AsInt64(), row);
  }
  return false;
}

bool Oracle::Apply(const pjvm::DeltaBatch& delta) {
  for (const Row& r : delta.deletes) {
    if (!Delete(delta.table, r)) return false;
  }
  for (const auto& [old_row, new_row] : delta.updates) {
    if (!Delete(delta.table, old_row)) return false;
    Insert(delta.table, new_row);
  }
  for (const Row& r : delta.inserts) {
    if (!Insert(delta.table, r)) return false;
  }
  return true;
}

void Oracle::JoinKey(int64_t custkey, bool with_lineitem,
                     std::vector<Row>* out) const {
  auto cust = customer_by_custkey_.find(custkey);
  auto ord = orders_by_custkey_.find(custkey);
  if (cust == customer_by_custkey_.end() || ord == orders_by_custkey_.end()) {
    return;
  }
  for (const Row& c : cust->second) {
    for (const Row& o : ord->second) {
      if (!with_lineitem) {
        out->push_back({c[kCustCustkey], c[kCustAcctbal], o[kOrdOrderkey],
                        o[kOrdTotalprice]});
        continue;
      }
      auto li = lineitem_by_orderkey_.find(o[kOrdOrderkey].AsInt64());
      if (li == lineitem_by_orderkey_.end()) continue;
      for (const Row& l : li->second) {
        out->push_back({c[kCustCustkey], c[kCustAcctbal], o[kOrdOrderkey],
                        o[kOrdTotalprice], l[kLineDiscount],
                        l[kLineExtprice]});
      }
    }
  }
}

std::vector<Row> Oracle::Jv1(int64_t custkey) const {
  std::vector<Row> out;
  JoinKey(custkey, /*with_lineitem=*/false, &out);
  return out;
}

std::vector<Row> Oracle::Jv2(int64_t custkey) const {
  std::vector<Row> out;
  JoinKey(custkey, /*with_lineitem=*/true, &out);
  return out;
}

std::vector<Row> Oracle::Jv1All() const {
  std::vector<Row> out;
  for (const auto& [key, rows] : customer_by_custkey_) {
    JoinKey(key, /*with_lineitem=*/false, &out);
  }
  return out;
}

std::vector<Row> Oracle::Jv2All() const {
  std::vector<Row> out;
  for (const auto& [key, rows] : customer_by_custkey_) {
    JoinKey(key, /*with_lineitem=*/true, &out);
  }
  return out;
}

std::vector<Row> Oracle::Lineitems(int64_t orderkey) const {
  auto it = lineitem_by_orderkey_.find(orderkey);
  if (it == lineitem_by_orderkey_.end()) return {};
  return it->second;
}

bool SameMultiset(std::vector<Row> a, std::vector<Row> b, std::string* why) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a == b) return true;
  if (why != nullptr) {
    auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    *why = std::to_string(a.size()) + " rows vs " + std::to_string(b.size()) +
           " expected; first difference: got " +
           (ia == a.end() ? std::string("<end>") : pjvm::RowToString(*ia)) +
           ", expected " +
           (ib == b.end() ? std::string("<end>") : pjvm::RowToString(*ib));
  }
  return false;
}

std::string CompareViews(pjvm::ViewManager* views, const Oracle& oracle) {
  std::string why;
  if (!SameMultiset(views->view("JV1")->Contents(), oracle.Jv1All(), &why)) {
    return "JV1: " + why;
  }
  if (!SameMultiset(views->view("JV2")->Contents(), oracle.Jv2All(), &why)) {
    return "JV2: " + why;
  }
  return "";
}

}  // namespace jvbench
