#include "workload.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"

namespace jvbench {

using pjvm::Row;
using pjvm::Value;

namespace {

// Freshly inserted customers take keys from the extra range, whose orders
// already exist, so every customer insert joins (the paper's delta tuples
// "each have one matching tuple in the orders relation"). 2048 extra keys
// cover two open 1024-row customer batches.
constexpr int64_t kCustomers = 3000;
constexpr int64_t kExtraKeys = 2048;

// Pairs per round come in the ratio 2 customer : 2 lineitem : 1 orders.
// Write latency is multimodal by table (lineitem fastest, orders slowest), and
// a median taken at a boundary between two modes jumps between them. In this
// ratio the 50% point falls inside the customer writes, away from any
// boundary, for all three methods.
const std::vector<WorkloadSpec> kWorkloads = {
    // Single-row deltas, one autocommit view read per nine writes.
    {"point_stream", 1, {300, 300, 150}, 9, 1, false, false},
    // ~1024-row deltas, sixteen reads of touched keys after each batch.
    {"bulk_batches", 1024, {2, 2, 1}, 1, 16, true, false},
    // Single-row deltas under strict 2PL, four transactional reads each.
    {"locked_read_mostly", 1, {100, 100, 50}, 1, 4, false, true},
};

template <typename T>
void Shuffle(std::vector<T>* v, pjvm::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace

const char* WriteKindName(WriteKind kind) {
  switch (kind) {
    case WriteKind::kCustomer:
      return "customer";
    case WriteKind::kLineitem:
      return "lineitem";
    case WriteKind::kOrders:
      return "orders";
  }
  return "?";
}

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

pjvm::TpcrConfig DataConfig(uint64_t seed) {
  pjvm::TpcrConfig config;
  config.customers = kCustomers;
  config.extra_customer_keys = kExtraKeys;
  config.orders_per_customer = 1;
  config.lineitems_per_order = 4;
  config.seed = seed;
  return config;
}

std::vector<Step> MakeRound(const WorkloadSpec& spec,
                            const pjvm::TpcrData& data, uint64_t seed) {
  pjvm::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const int64_t customers = data.config.customers;
  const int64_t all_keys = customers + data.config.extra_customer_keys;
  const size_t per_pair = static_cast<size_t>(spec.batch_rows);
  auto rows_of = [&](WriteKind kind) {
    return per_pair * static_cast<size_t>(spec.pairs[static_cast<int>(kind)]);
  };

  // Orders whose customer is loaded (so lineitem and price writes reach the
  // views), and each custkey's order, for reads.
  std::vector<const Row*> joined_orders;
  std::unordered_map<int64_t, int64_t> order_of_cust;
  for (const Row& o : data.orders) {
    const int64_t orderkey = o[0].AsInt64(), custkey = o[1].AsInt64();
    order_of_cust.emplace(custkey, orderkey);
    if (custkey < customers) joined_orders.push_back(&o);
  }

  // Customer inserts take distinct extra keys, so no key is inserted twice
  // while live within a round.
  std::vector<int64_t> extra;
  for (int64_t k = customers; k < all_keys; ++k) extra.push_back(k);
  Shuffle(&extra, &rng);
  extra.resize(std::min(extra.size(), rows_of(WriteKind::kCustomer)));
  // Price updates take distinct orders, so overlapping update/revert pairs
  // never touch the same row.
  std::vector<const Row*> updated = joined_orders;
  Shuffle(&updated, &rng);
  updated.resize(std::min(updated.size(), rows_of(WriteKind::kOrders)));

  struct Pair {
    WriteKind kind;
    pjvm::DeltaBatch open, close;
    std::vector<int64_t> custkeys;
  };
  std::vector<Pair> pairs;
  size_t next_extra = 0, next_update = 0;
  for (int k = 0; k < 3; ++k) {
    const WriteKind kind = static_cast<WriteKind>(k);
    for (int p = 0; p < spec.pairs[k]; ++p) {
      Pair pair{kind, {}, {}, {}};
      std::vector<Row> rows;
      for (size_t i = 0; i < per_pair; ++i) {
        if (kind == WriteKind::kCustomer) {
          const int64_t ck = extra[next_extra++ % extra.size()];
          rows.push_back({Value{ck}, Value{rng.UniformDouble() * 10000.0},
                          Value{"BenchCustomer#" + std::to_string(ck)}});
          pair.custkeys.push_back(ck);
        } else if (kind == WriteKind::kLineitem) {
          const Row& o = *joined_orders[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(joined_orders.size()) - 1))];
          rows.push_back({o[0], Value{rng.UniformInt(0, 9999)},
                          Value{rng.UniformInt(0, 99)},
                          Value{rng.UniformDouble() * 5000.0},
                          Value{rng.UniformDouble() * 0.1}});
          pair.custkeys.push_back(o[1].AsInt64());
        } else {
          const Row& old_row = *updated[next_update++ % updated.size()];
          Row new_row = old_row;
          new_row[2] = Value{rng.UniformDouble() * 100000.0};
          pair.open.updates.emplace_back(old_row, new_row);
          pair.close.updates.emplace_back(new_row, old_row);
          pair.custkeys.push_back(old_row[1].AsInt64());
        }
      }
      const std::string table = WriteKindName(kind);
      if (kind == WriteKind::kOrders) {
        pair.open.table = pair.close.table = table;
      } else {
        pair.open = pjvm::DeltaBatch::Inserts(table, rows);
        pair.close = pjvm::DeltaBatch::Deletes(table, rows);
      }
      pairs.push_back(std::move(pair));
    }
  }

  // A uniformly random interleaving in which each pair opens before it
  // closes: shuffle two tokens per pair; the first token seen opens it.
  std::vector<size_t> tokens;
  for (size_t p = 0; p < pairs.size(); ++p) {
    tokens.push_back(p);
    tokens.push_back(p);
  }
  Shuffle(&tokens, &rng);
  std::vector<bool> opened(pairs.size(), false);

  std::vector<Step> round;
  int writes = 0, reads = 0;
  for (size_t p : tokens) {
    Pair& pair = pairs[p];
    Step w;
    w.is_write = true;
    w.kind = pair.kind;
    w.delta = opened[p] ? pair.close : pair.open;
    w.rows = per_pair;
    opened[p] = true;
    round.push_back(std::move(w));
    if (++writes % spec.writes_per_group != 0) continue;
    for (int r = 0; r < spec.reads_per_group; ++r) {
      Step s;
      s.read.view = 1 + (reads++ % 2);
      s.read.custkey =
          spec.read_touched_keys
              ? pair.custkeys[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(pair.custkeys.size()) - 1))]
              : rng.UniformInt(0, all_keys - 1);
      if (spec.locking) s.read.orderkey = order_of_cust.at(s.read.custkey);
      round.push_back(std::move(s));
    }
  }
  return round;
}

}  // namespace jvbench
