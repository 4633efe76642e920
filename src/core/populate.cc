#include "core/populate.h"

#include "common/logging.h"
#include "workload/generator.h"

namespace netcache {

void PopulateStores(const HashPartitioner& partitioner,
                    const std::vector<std::unique_ptr<StorageServer>>& servers,
                    uint64_t num_keys, size_t value_size) {
  NC_CHECK(partitioner.num_partitions() == servers.size());
  NC_CHECK(num_keys <= (uint64_t{1} << 32)) << "ids are grouped as uint32";
  // Grouped from the highest id down, so each owner loads its lowest ids
  // last. HashDyn inserts at the chain head, which leaves the lowest ids
  // first in their chains: the workload generator's identity ranking makes
  // them the most popular (workload/popularity.h).
  std::vector<std::vector<uint32_t>> owned(servers.size());
  for (uint64_t id = num_keys; id-- > 0;) {
    owned[partitioner.PartitionOf(Key::FromUint64(id))].push_back(static_cast<uint32_t>(id));
  }
  for (size_t s = 0; s < servers.size(); ++s) {
    KvStore& store = servers[s]->store();
    store.Reserve(owned[s].size());
    for (uint32_t id : owned[s]) {
      store.Put(Key::FromUint64(id), WorkloadGenerator::ValueFor(id, value_size));
    }
    std::vector<uint32_t>().swap(owned[s]);
  }
}

}  // namespace netcache
