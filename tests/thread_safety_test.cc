// Threaded exercises for the mutex-protected control channel. Under a normal
// build these are smoke tests; the CI matrix also runs them under
// -DNETCACHE_SANITIZE=TSAN, where any data race in the annotated sections
// aborts the test. The simulator itself stays single-threaded — only the
// §4.2 control plane is specified as concurrent.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/simulator.h"
#include "proto/value.h"
#include "server/storage_server.h"

namespace netcache {
namespace {

Key K(uint64_t id) { return Key::FromUint64(id); }

TEST(ThreadSafetyTest, ControlChannelConcurrentFetchAndApply) {
  Simulator sim;
  ServerConfig cfg;
  StorageServer server(&sim, "s0", cfg);
  constexpr uint64_t kKeySpace = 64;
  for (uint64_t id = 0; id < kKeySpace; ++id) {
    server.store().Put(K(id), Value::Filler(id, 32));
  }

  // Readers model the controller fetching values for cache insertion while
  // writers model write-back flushes landing on the same store.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&server, t] {
      for (int i = 0; i < 5000; ++i) {
        Key key = K(static_cast<uint64_t>(t + i) % kKeySpace);
        if (t % 2 == 0) {
          Result<Value> r = server.ControlFetch(key);
          (void)r;
        } else {
          server.ControlApply(key, Value::Filler(static_cast<uint64_t>(i), 32));
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(server.store().size(), kKeySpace);  // applies overwrite, never lose keys
}

}  // namespace
}  // namespace netcache
