#include "svc/shard_router.hpp"

namespace hyaline::svc {

shard_totals aggregate(const std::vector<shard_snapshot>& shards) {
  shard_totals t;
  std::uint64_t hottest = 0;
  for (const shard_snapshot& s : shards) {
    t.gets += s.gets;
    t.hits += s.hits;
    t.puts += s.puts;
    t.dels += s.dels;
    t.retired += s.retired;
    t.freed += s.freed;
    const std::uint64_t ops = s.ops();
    t.ops += ops;
    if (ops > hottest) hottest = ops;
  }
  if (t.ops > 0 && !shards.empty()) {
    const double mean =
        static_cast<double>(t.ops) / static_cast<double>(shards.size());
    t.imbalance = static_cast<double>(hottest) / mean;
  }
  return t;
}

}  // namespace hyaline::svc
