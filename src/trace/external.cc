#include "trace/external.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "util/key_hash.h"

namespace camp::trace {

namespace {

/// Split the next comma field off `line`; returns false when exhausted.
bool next_field(std::string_view& line, std::string_view& field) {
  if (line.empty()) return false;
  const std::size_t comma = line.find(',');
  if (comma == std::string_view::npos) {
    field = line;
    line = {};
  } else {
    field = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

enum class OpClass { kRead, kWrite, kOther };

OpClass classify(std::string_view op) {
  if (op == "get" || op == "gets") return OpClass::kRead;
  if (op == "set" || op == "add" || op == "replace" || op == "cas" ||
      op == "append" || op == "prepend") {
    return OpClass::kWrite;
  }
  return OpClass::kOther;
}

/// SplitMix64 step for the per-key cost draw.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t hash_key(std::string_view key) noexcept {
  return util::fnv1a64(key);
}

std::uint32_t tiered_cost(std::uint64_t key, std::uint64_t seed) noexcept {
  static constexpr std::array<std::uint32_t, 3> kTiers{1, 100, 10'000};
  return kTiers[mix64(key ^ mix64(seed)) % kTiers.size()];
}

std::vector<TraceRecord> parse_twitter_csv(std::istream& in,
                                           const ExternalTraceOptions& options,
                                           ExternalTraceStats* stats) {
  if (!in.good()) {
    throw std::runtime_error("parse_twitter_csv: bad input stream");
  }
  ExternalTraceStats local;
  std::vector<TraceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    ++local.lines;
    if (local.lines <= options.skip_rows) continue;
    if (options.limit != 0 && records.size() >= options.limit) break;
    std::string_view rest(line);
    // Layout: timestamp,key,key size,value size,client id,operation[,TTL]
    std::string_view ts, key, key_size, value_size, client, op;
    if (!next_field(rest, ts) || !next_field(rest, key) ||
        !next_field(rest, key_size) || !next_field(rest, value_size) ||
        !next_field(rest, client) || !next_field(rest, op) || key.empty()) {
      ++local.dropped_malformed;
      continue;
    }
    std::uint64_t ksize = 0, vsize = 0;
    if (!parse_u64(key_size, ksize) || !parse_u64(value_size, vsize)) {
      ++local.dropped_malformed;
      continue;
    }
    const OpClass cls = classify(op);
    if (cls == OpClass::kOther ||
        (cls == OpClass::kWrite && !options.include_writes)) {
      ++local.dropped_operation;
      continue;
    }
    TraceRecord r;
    r.key = hash_key(key);
    r.size = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(ksize + vsize, 1, UINT32_MAX));
    switch (options.cost) {
      case CostAssignment::kUnit:
        r.cost = 1;
        break;
      case CostAssignment::kTieredChoice:
        r.cost = tiered_cost(r.key, options.seed);
        break;
      case CostAssignment::kSizeLinear:
        r.cost = std::max<std::uint32_t>(1, r.size / 64);
        break;
    }
    r.trace_id = 0;
    records.push_back(r);
    ++local.parsed;
  }
  if (stats != nullptr) *stats = local;
  return records;
}

std::vector<TraceRecord> parse_twitter_csv_file(
    const std::string& path, const ExternalTraceOptions& options,
    ExternalTraceStats* stats) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("parse_twitter_csv_file: cannot open " + path);
  }
  return parse_twitter_csv(in, options, stats);
}

}  // namespace camp::trace
