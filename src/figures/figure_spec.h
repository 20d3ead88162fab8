// FigureSpec: one paper figure as a first-class, enumerable, deterministic
// computation.
//
// A spec exposes its points (series name x x-axis value) up front;
// FigureRunner (figure_runner.h) runs every point and emits the figure's
// rows for the CSV/JSON pipeline and the committed baselines.
//
// All figure computations are deterministic functions of FigureOptions
// (scale, seed). Wall-clock throughput metrics are only produced when
// `timing` is set, so a default run is byte-identical across invocations
// and machines with the same toolchain.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "figures/traces.h"

namespace camp::figures {

struct FigureOptions {
  Scale scale = Scale::smoke();
  /// Base seed; per-workload seeds are derived via seed_for(). The default
  /// reproduces the committed baselines' traces.
  std::uint64_t seed = kCanonicalSeed;
  /// Include wall-clock throughput metrics (ops_per_sec). These are NOT
  /// deterministic; the baseline diff applies a banded tolerance to them.
  bool timing = false;
};

/// One (series, x-axis) cell of a figure.
struct FigurePointSpec {
  std::string policy;   // series name, e.g. "camp-p5" or "batched/clients=4"
  std::string x_label;  // "ratio", "precision", "shards", ...
  double x = 0.0;
};

/// One emitted row: a point plus its metric columns in a fixed order.
struct FigureRow {
  FigurePointSpec point;
  std::vector<std::pair<std::string, double>> metrics;
};

/// A full figure run, ready for the emitters.
struct FigureResult {
  std::string figure;      // registry id, e.g. "fig5cd"
  std::uint64_t seed = 0;  // base seed the run used
  std::string scale;       // scale name ("smoke", "paper", "tiny")
  std::vector<FigureRow> rows;
};

class FigureSpec {
 public:
  using PointsFn =
      std::function<std::vector<FigurePointSpec>(const FigureOptions&)>;
  /// Most points produce one row; timeline figures (fig6cd) fan out.
  using RunPointFn = std::function<std::vector<FigureRow>(
      const FigurePointSpec&, const FigureOptions&)>;

  FigureSpec(std::string id, std::string title, PointsFn points,
             RunPointFn run_point)
      : id_(std::move(id)),
        title_(std::move(title)),
        points_(std::move(points)),
        run_point_(std::move(run_point)) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] std::vector<FigurePointSpec> points(
      const FigureOptions& options) const {
    return points_(options);
  }
  [[nodiscard]] std::vector<FigureRow> run_point(
      const FigurePointSpec& point, const FigureOptions& options) const {
    return run_point_(point, options);
  }

 private:
  std::string id_;
  std::string title_;
  PointsFn points_;
  RunPointFn run_point_;
};

/// Every registered figure, in emission order.
[[nodiscard]] const std::vector<FigureSpec>& all_figures();

/// Lookup by registry id; nullptr when unknown.
[[nodiscard]] const FigureSpec* find_figure(const std::string& id);

/// The paper's default x-axis: cache size ratios.
[[nodiscard]] std::vector<double> paper_cache_ratios();

/// CAMP precision x-axis used by Figures 5a/5b/8c; kPrecisionInfinity (64)
/// stands in for the "infinity" tick.
[[nodiscard]] std::vector<int> paper_precisions();

}  // namespace camp::figures
