// Runs every policy spec the factory knows (CAMP, self-tuning CAMP, LRU and
// GDS) over the same BG-like trace (skewed access, {1,100,10K} costs) and
// prints a comparison table — a compact reproduction of the paper's
// Section 3 story.
//
//   build/examples/policy_comparison [cache_ratio]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "policy/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/workloads.h"

int main(int argc, char** argv) {
  const double ratio = argc > 1 ? std::atof(argv[1]) : 0.1;

  camp::trace::TraceGenerator gen(
      camp::trace::bg_default(/*num_keys=*/30'000, /*num_requests=*/300'000,
                              /*seed=*/11));
  const auto records = gen.generate();
  const std::uint64_t capacity =
      camp::sim::capacity_for_ratio(ratio, gen.unique_bytes());

  std::printf("trace: %zu requests, %llu unique bytes, cache ratio %.2f "
              "(%llu MiB)\n\n",
              records.size(),
              static_cast<unsigned long long>(gen.unique_bytes()), ratio,
              static_cast<unsigned long long>(capacity >> 20));
  std::printf("%-14s %12s %16s %12s\n", "policy", "miss-rate",
              "cost-miss-ratio", "evictions");

  for (const std::string& spec : camp::policy::known_policy_specs()) {
    auto cache = camp::policy::make_policy(spec, capacity);
    camp::sim::Simulator simulator(*cache);
    simulator.run(records);
    const auto& m = simulator.metrics();
    std::printf("%-14s %12.4f %16.4f %12llu\n", cache->name().c_str(),
                m.miss_rate(), m.cost_miss_ratio(),
                static_cast<unsigned long long>(cache->stats().evictions));
  }
  std::printf("\nlower cost-miss-ratio = less recomputation cost paid.\n");
  return 0;
}
