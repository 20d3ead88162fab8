#include "policy/policy_factory.h"

#include <charconv>
#include <optional>
#include <stdexcept>

#include "core/auto_tuner.h"
#include "core/camp.h"
#include "policy/gds.h"
#include "policy/lru.h"

namespace camp::policy {

namespace {

[[nodiscard]] std::invalid_argument spec_error(const std::string& spec,
                                               const std::string& why) {
  return std::invalid_argument("make_policy: " + why + " in spec '" + spec +
                               "'");
}

/// Strict precision parse: empty input, non-numeric characters, trailing
/// garbage and values below 1 all throw (naming the offending token), never
/// fall back.
int parse_precision(std::string_view text, const std::string& spec) {
  int p = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), p);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw spec_error(spec, "bad precision '" + std::string(text) + "'");
  }
  if (p < 1) {
    throw spec_error(spec, "precision must be >= 1 (got '" +
                               std::string(text) + "')");
  }
  return p;
}

/// Parsed ':'-separated key=value parameters of a "camp:..." spec.
struct CampSpecParams {
  std::optional<int> precision;  // numeric p=
  bool auto_precision = false;   // p=auto
  std::optional<std::vector<int>> candidates;
};

CampSpecParams parse_camp_params(const std::string& spec,
                                 std::string_view rest) {
  CampSpecParams out;
  while (!rest.empty()) {
    const std::size_t colon = rest.find(':');
    const std::string_view token = rest.substr(0, colon);
    rest = colon == std::string_view::npos ? std::string_view{}
                                           : rest.substr(colon + 1);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw spec_error(spec, "malformed parameter '" + std::string(token) +
                                 "' (want key=value)");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "p") {
      if (out.precision.has_value() || out.auto_precision) {
        throw spec_error(spec, "duplicate parameter 'p'");
      }
      if (value == "auto") {
        out.auto_precision = true;
      } else {
        out.precision = parse_precision(value, spec);
      }
    } else if (key == "candidates") {
      if (out.candidates.has_value()) {
        throw spec_error(spec, "duplicate parameter 'candidates'");
      }
      std::vector<int> list;
      std::string_view items = value;
      while (true) {
        const std::size_t comma = items.find(',');
        list.push_back(parse_precision(items.substr(0, comma), spec));
        if (comma == std::string_view::npos) break;
        items = items.substr(comma + 1);
      }
      out.candidates = std::move(list);
    } else {
      throw spec_error(spec, "unknown parameter '" + std::string(key) +
                                 "' for 'camp'");
    }
  }
  if (out.candidates.has_value() && !out.auto_precision) {
    throw spec_error(spec, "'candidates' requires p=auto");
  }
  return out;
}

/// The parameter tail after "camp:", or empty for a bare "camp".
[[nodiscard]] std::string_view camp_param_tail(const std::string& spec) {
  return spec == "camp" ? std::string_view{}
                        : std::string_view(spec).substr(5);
}

[[nodiscard]] core::AutoTunerConfig auto_tuner_config(
    const CampSpecParams& params) {
  core::AutoTunerConfig config;
  if (params.candidates.has_value()) {
    config.candidates = *params.candidates;
    config.initial_precision = config.candidates.front();
  }
  return config;
}

}  // namespace

std::unique_ptr<ICache> make_policy(const std::string& spec,
                                    std::uint64_t capacity_bytes) {
  if (spec == "lru") return std::make_unique<LruCache>(capacity_bytes);
  if (spec == "camp" || spec.rfind("camp:", 0) == 0) {
    const CampSpecParams params =
        parse_camp_params(spec, camp_param_tail(spec));
    if (params.auto_precision) {
      core::CampConfig config;
      config.capacity_bytes = capacity_bytes;
      return core::make_self_tuning_camp(config, auto_tuner_config(params));
    }
    core::CampConfig config;
    config.capacity_bytes = capacity_bytes;
    if (params.precision.has_value()) config.precision = *params.precision;
    return core::make_camp(config);
  }
  if (spec == "gds") {
    return make_gds(GdsConfig{capacity_bytes, false});
  }
  if (spec == "gds:lru") {
    return make_gds(GdsConfig{capacity_bytes, true});
  }
  throw std::invalid_argument("make_policy: unknown spec '" + spec + "'");
}

std::function<std::unique_ptr<ICache>(std::uint64_t)> make_policy_factory(
    const std::string& spec) {
  if (spec == "camp" || spec.rfind("camp:", 0) == 0) {
    const CampSpecParams params =
        parse_camp_params(spec, camp_param_tail(spec));
    if (params.auto_precision) {
      core::AutoTunerConfig tuner_config = auto_tuner_config(params);
      const int initial = tuner_config.initial_precision;
      auto tuner =
          std::make_shared<core::SharedAutoTuner>(std::move(tuner_config));
      return [tuner, initial](
                 std::uint64_t capacity) -> std::unique_ptr<ICache> {
        core::CampConfig config;
        config.capacity_bytes = capacity;
        config.precision = initial;
        return std::make_unique<core::SelfTuningCampCache>(config, tuner);
      };
    }
  }
  return [spec](std::uint64_t capacity) { return make_policy(spec, capacity); };
}

std::vector<std::string> known_policy_specs() {
  return {"lru", "camp", "camp:p=1", "camp:p=auto", "gds", "gds:lru"};
}

}  // namespace camp::policy
