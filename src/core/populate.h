// Bulk load of the keyspace into the storage servers' stores: in the
// paper's rack experiments every server's store already holds its whole
// hash partition of the keyspace before traffic starts (§6-§7).

#ifndef NETCACHE_CORE_POPULATE_H_
#define NETCACHE_CORE_POPULATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "server/storage_server.h"
#include "workload/partition.h"

namespace netcache {

// Upserts every key id in [0, num_keys) into its owner's store
// (`servers[partitioner.PartitionOf(key)]`) with the id's
// WorkloadGenerator::ValueFor value. Ids are grouped by owner first; each
// owner's table is then sized once (KvStore::Reserve) and loaded, in
// descending id order, before the next owner's, so one table is hot at a
// time. Each id costs one KvStore::Put, exactly as a per-key loop over the
// ids would, and the stores end up holding the same items.
void PopulateStores(const HashPartitioner& partitioner,
                    const std::vector<std::unique_ptr<StorageServer>>& servers,
                    uint64_t num_keys, size_t value_size);

}  // namespace netcache

#endif  // NETCACHE_CORE_POPULATE_H_
