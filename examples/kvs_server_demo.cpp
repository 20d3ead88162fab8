// End-to-end KVS demo: starts the memcached-protocol server (worker-pool
// threading, sharded store) with a CAMP engine, connects a TCP client, and
// demonstrates the IQ cost-capture flow (iqget miss -> compute -> iqset
// derives the cost from elapsed time) plus the batched API (a whole
// KvsBatch of ops in one write()).
//
//   build/examples/kvs_server_demo
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/camp.h"
#include "kvs/client.h"
#include "kvs/server.h"

int main() {
  camp::util::SteadyClock clock;
  camp::kvs::ServerConfig config;
  config.port = 0;  // pick a free port
  config.workers = 2;  // fixed worker pool (0 = one per core)
  config.store.shards = 2;
  config.store.engine.slab.memory_limit_bytes = 8u << 20;

  camp::kvs::KvsServer server(
      config,
      [](std::uint64_t capacity) {
        camp::core::CampConfig camp_config;
        camp_config.capacity_bytes = capacity;
        camp_config.precision = 5;
        return camp::core::make_camp(camp_config);
      },
      clock);
  server.start();
  std::printf("server listening on 127.0.0.1:%u (policy: CAMP p=5)\n",
              server.port());

  camp::kvs::KvsClient client("127.0.0.1", server.port());
  std::printf("client: %s\n", client.version().c_str());

  // Plain set/get with an explicit cost.
  client.set("profile:alice", "{\"name\":\"Alice\"}", 0, /*cost=*/3);
  const auto alice = client.get("profile:alice");
  std::printf("get profile:alice -> %s\n", alice.value.c_str());

  // IQ flow: the server times the gap between the iqget miss and the iqset
  // and uses it as the pair's cost.
  const auto miss = client.iqget("model:ads");
  std::printf("iqget model:ads -> %s\n", miss.hit ? "hit" : "miss");
  std::this_thread::sleep_for(std::chrono::milliseconds(25));  // "compute"
  client.iqset("model:ads", "weights...", 0);
  std::printf("iqset model:ads (cost = measured 25ms recompute time)\n");
  std::printf("iqget model:ads -> %s\n",
              client.iqget("model:ads").hit ? "hit" : "miss");

  // Batched API: one write() carries the whole batch — noreply sets plus a
  // multi-get — and the results come back index-aligned with the ops.
  camp::kvs::KvsBatch batch;
  batch.add_set("user:1", "ada", 0, 1, 0, /*noreply=*/true)
      .add_set("user:2", "grace", 0, 1, 0, /*noreply=*/true)
      .add_get("user:1")
      .add_get("user:2")
      .add_get("user:404");
  const auto before = client.write_count();
  const camp::kvs::KvsBatchResult batch_result = client.execute(batch);
  std::printf("\nbatch of %zu ops in %llu write(s):\n", batch.size(),
              static_cast<unsigned long long>(client.write_count() - before));
  for (std::size_t i = 0; i < batch_result.size(); ++i) {
    std::printf("  op %zu (%s) -> %s%s%s\n", i, batch[i].key.c_str(),
                batch_result[i].ok ? "ok" : "miss",
                batch_result[i].acked ? "" : " (noreply, assumed)",
                batch_result[i].value.empty()
                    ? ""
                    : (": " + batch_result[i].value).c_str());
  }

  std::printf("\nserver stats:\n");
  for (const auto& [name, value] : client.stats()) {
    std::printf("  %-20s %s\n", name.c_str(), value.c_str());
  }

  server.stop();
  std::printf("server stopped.\n");
  return 0;
}
