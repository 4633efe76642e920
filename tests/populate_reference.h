// Shared reference for the bulk store load (core/populate.h): the per-key
// loop it replaced, and the check that a Populate'd topology holds exactly
// what that loop would have loaded. Works on any topology with
// num_servers(), server(i), server_ip(i) and OwnerOf(key) (Rack, Fabric).

#ifndef NETCACHE_TESTS_POPULATE_REFERENCE_H_
#define NETCACHE_TESTS_POPULATE_REFERENCE_H_

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "kvstore/kv_store.h"
#include "workload/generator.h"

namespace netcache {

// The per-key load: every id in [0, num_keys), in id order, Put straight
// into its owner's store.
template <typename Topology>
void ReferencePopulate(Topology& topo, uint64_t num_keys, size_t value_size) {
  for (uint64_t id = 0; id < num_keys; ++id) {
    Key key = Key::FromUint64(id);
    size_t owner = topo.OwnerOf(key) - topo.server_ip(0);
    topo.server(owner).store().Put(key, WorkloadGenerator::ValueFor(id, value_size));
  }
}

// `bulk` was loaded by Populate and `ref` by ReferencePopulate, with the same
// arguments and the same config. Every server of `bulk` holds only ids in
// [0, num_keys) that it owns, each with its ValueFor value, and has the
// reference's item count and kv.puts — so it holds exactly its partition.
template <typename Topology>
void ExpectSameStores(Topology& bulk, Topology& ref, uint64_t num_keys, size_t value_size) {
  ASSERT_EQ(bulk.num_servers(), ref.num_servers());
  size_t total = 0;
  for (size_t s = 0; s < bulk.num_servers(); ++s) {
    const KvStore& store = bulk.server(s).store();
    const KvStore& want = ref.server(s).store();
    EXPECT_EQ(store.size(), want.size()) << "server " << s;
    EXPECT_EQ(store.stats().puts, want.stats().puts) << "server " << s;
    store.ForEach([&](const Key& key, const Value& value) {
      uint64_t id = key.AsUint64();
      EXPECT_LT(id, num_keys);
      EXPECT_EQ(bulk.OwnerOf(key), bulk.server_ip(s)) << "id " << id;
      EXPECT_EQ(value, WorkloadGenerator::ValueFor(id, value_size)) << "id " << id;
    });
    total += store.size();
  }
  EXPECT_EQ(total, num_keys);
}

}  // namespace netcache

#endif  // NETCACHE_TESTS_POPULATE_REFERENCE_H_
