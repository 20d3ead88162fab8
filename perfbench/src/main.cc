// camp_perfbench: one workload, one run, every metric by name with its unit.
//
//   camp_perfbench --workload <trace-replay|paper-mix|hot-multiget|cluster-r2>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale full|tiny] [--fault none|flip-hit|drop-set]
//                  [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 records
// spans and reports the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// failed check makes `correct` false and the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace camp::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Emitted in the final JSON line for its kind (the others are printed
  /// in the report only: they do not exist on every workload).
  bool json;
};

// End-to-end metrics, from the untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_sec", "1/s", true},
    {"get_p50_us", "us", true},
    {"get_p99_us", "us", true},
    {"set_p99_us", "us", true},
    {"hit_ratio", "ratio", true},
    {"cost_miss_ratio", "ratio", true},
    {"bytes_per_user_byte", "ratio", true},
    {"setup_s", "s", true},
    // 0 on clean code, so the failure count travels in the JSON line's
    // `failed` / `attempted` fields instead.
    {"error_ratio", "ratio", false},
};

// Per-layer metrics, from the traced run.
constexpr MetricDef kPerLayer[] = {
    {"policy.get_ns", "ns", true},
    {"policy.put_ns", "ns", true},
    {"policy.heap_visits_per_req", "count", true},
    {"policy.evictions_per_put", "count", true},
    {"policy.queues", "count", true},
    {"policy.share", "ratio", true},
    {"policy.camp.req_ns", "ns", true},
    {"policy.lru.req_ns", "ns", true},
    {"policy.gds.req_ns", "ns", true},
    {"policy.camp_over_lru", "ratio", true},
    {"store.get_ns", "ns", true},
    {"store.set_ns", "ns", true},
    {"engine.get_self_ns", "ns", true},
    {"engine.set_self_ns", "ns", true},
    {"engine.slab_reassign_per_set", "count", true},
    {"engine.stored_per_raw_byte", "ratio", true},
    {"engine.compress_bail_ratio", "ratio", true},
    {"protocol.encode_ns_per_op", "ns", true},
    {"protocol.decode_ns_per_cmd", "ns", true},
    {"protocol.format_ns_per_reply", "ns", true},
    {"protocol.request_bytes_per_op", "B", true},
    {"protocol.reply_bytes_per_op", "B", true},
    {"client.execute_us_p50", "us", false},
    {"transport.self_us_per_batch", "us", false},
    {"client.sends_per_batch", "count", false},
    {"cluster.node_execute_us", "us", false},
    {"cluster.subbatches_per_batch", "count", false},
    {"cluster.peer_get_us", "us", false},
    {"cluster.peer_set_us", "us", false},
    {"cluster.local_hit_ratio", "ratio", false},
    {"cluster.remote_hit_ratio", "ratio", false},
    {"cluster.replica_writes_per_set", "count", false},
    {"cluster.transfer_bytes_per_get", "B", false},
    {"trace.overhead", "ratio", true},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "camp_perfbench: %s\n"
               "usage: camp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--fault none|flip-hit|drop-set]\n",
               why.c_str());
  std::exit(2);
}

struct Args {
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.options.seconds = std::stod(value);
        if (!(a.options.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.options.trace = value == "1";
      } else if (flag == "--scale") {
        if (value == "full") {
          a.options.scale = Scale::kFull;
        } else if (value == "tiny") {
          a.options.scale = Scale::kTiny;
        } else {
          usage("unknown scale " + value);
        }
      } else if (flag == "--fault") {
        if (value == "none") {
          a.options.fault = Fault::kNone;
        } else if (value == "flip-hit") {
          a.options.fault = Fault::kFlipHit;
        } else if (value == "drop-set") {
          a.options.fault = Fault::kDropSet;
        } else {
          usage("unknown fault " + value);
        }
      } else if (flag == "--git-sha") {
        a.git_sha = value;
      } else if (flag == "--source-digest") {
        a.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Timings are only worth reporting from an optimised, uninstrumented build.
bool timing_build(std::string& why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
  return false;
#endif
#ifndef NDEBUG
  why = "assertions are on (NDEBUG undefined)";
  return false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    why = std::string("build type is ") + PERFBENCH_BUILD_TYPE;
    return false;
  }
  if (PERFBENCH_SANITIZED != 0) {
    why = "sanitizer flags in the build";
    return false;
  }
  return true;
}

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kFull: return "full";
    case Scale::kTiny: return "tiny";
  }
  return "?";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Options& o = args.options;
  std::printf(
      "run workload=%s seed=%llu seconds=%g trace=%d scale=%s git_sha=%s "
      "source_digest=%s compiler=\"%s\" build_type=%s nproc=%u\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, scale_name(o.scale), args.git_sha.c_str(),
      args.source_digest.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency());
  std::string why;
  if (!timing_build(why)) {
    std::fprintf(stderr, "camp_perfbench: refusing to report timings: %s\n",
                 why.c_str());
    return 3;
  }
  std::fflush(stdout);

  RunResult r = run_workload(o);
  if (!o.trace) {
    r.set("error_ratio", r.attempted == 0
                             ? 0
                             : static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted));
  }

  for (const std::string& note : r.notes) std::printf("check %s\n", note.c_str());
  for (const std::string& p : r.problems) std::printf("FAILED %s\n", p.c_str());

  std::string json_metrics;
  bool complete = true;
  for (const bool traced : {false, true}) {
    for (const MetricDef& d : traced ? std::span<const MetricDef>(kPerLayer)
                                     : std::span<const MetricDef>(kEndToEnd)) {
      const auto it = r.metrics.find(d.name);
      const bool measured = traced == o.trace && it != r.metrics.end();
      if (!measured) {
        std::printf("metric %-32s %20s %s\n", d.name, "n/a", d.unit);
      } else if (it->second.samples > 0) {
        std::printf("metric %-32s %20.6f %s n=%llu\n", d.name, it->second.value,
                    d.unit,
                    static_cast<unsigned long long>(it->second.samples));
      } else {
        std::printf("metric %-32s %20.6f %s\n", d.name, it->second.value,
                    d.unit);
      }
      if (traced != o.trace || !d.json) continue;
      if (!measured || !std::isfinite(it->second.value)) {
        complete = false;
        std::printf("FAILED metric %s was not measured\n", d.name);
        continue;
      }
      if (!json_metrics.empty()) json_metrics += ", ";
      json_metrics += std::string("\"") + d.name + "\": {\"value\": " +
                      json_number(it->second.value) + ", \"unit\": \"" +
                      d.unit + "\"}";
    }
  }
  const bool correct = complete && r.problems.empty() && r.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
      static_cast<unsigned long long>(r.failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace camp::perfbench

int main(int argc, char** argv) {
  try {
    return camp::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camp_perfbench: %s\n", e.what());
    return 1;
  }
}
