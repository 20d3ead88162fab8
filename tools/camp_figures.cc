// camp_figures — regenerate the paper's figure data in one command.
//
//   camp_figures --figure all --out bench/baselines/
//   camp_figures --figure fig5cd,fig9 --out /tmp/fig --scale paper
//   camp_figures --list
//
// Options:
//   --figure <all|id[,id...]>  which figures to run (default all)
//   --out <dir>                output directory (created if missing)
//   --scale <smoke|paper|tiny> request volume (default smoke)
//   --seed <n>                 base seed (default 2014, the paper runs)
//   --format <csv|json|both>   emitted formats (default csv)
//   --timing                   also measure wall-clock throughput metrics
//                              (nondeterministic; diffed with a band)
//   --plots                    also write a gnuplot script (<id>.gp) next
//                              to each CSV; `gnuplot <id>.gp` renders one
//                              PNG per metric
//   --list                     print the registry and exit
//
// Without --timing the output is a pure function of (figure, scale, seed):
// two runs are byte-identical, which is what the committed baselines and
// the CI perf-regression gate rely on.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "figures/emit.h"
#include "figures/figure_runner.h"
#include "tool_args.h"

namespace {

using namespace camp;
using camp::tools::match_arg;

struct Args {
  std::string figure = "all";
  std::string out;
  std::string scale;
  std::string format = "csv";
  std::uint64_t seed = figures::kCanonicalSeed;
  bool timing = false;
  bool plots = false;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::string seed_text;
  for (int i = 1; i < argc; ++i) {
    if (match_arg(argc, argv, i, "--figure", &args.figure)) continue;
    if (match_arg(argc, argv, i, "--out", &args.out)) continue;
    if (match_arg(argc, argv, i, "--scale", &args.scale)) continue;
    if (match_arg(argc, argv, i, "--format", &args.format)) continue;
    if (match_arg(argc, argv, i, "--seed", &seed_text)) continue;
    if (match_arg(argc, argv, i, "--timing", nullptr)) {
      args.timing = true;
      continue;
    }
    if (match_arg(argc, argv, i, "--plots", nullptr)) {
      args.plots = true;
      continue;
    }
    if (match_arg(argc, argv, i, "--list", nullptr)) {
      args.list = true;
      continue;
    }
    throw std::invalid_argument(std::string("unknown argument '") + argv[i] +
                                "'");
  }
  if (!seed_text.empty()) args.seed = std::stoull(seed_text);
  return args;
}

figures::Scale scale_for(const std::string& name) {
  if (name.empty() || name == "smoke") return figures::Scale::smoke();
  if (name == "paper") return figures::Scale::paper();
  if (name == "tiny") return figures::Scale::tiny();
  throw std::invalid_argument("unknown scale '" + name +
                              "' (want smoke|paper|tiny)");
}

void write_file(const std::filesystem::path& path,
                const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open " + path.string() +
                             " for writing");
  }
  out << content;
  if (!out) {
    throw std::runtime_error("short write to " + path.string());
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);

    if (args.list) {
      std::printf("%-14s %s\n", "figure", "title");
      for (const figures::FigureSpec& spec : figures::all_figures()) {
        std::printf("%-14s %s\n", spec.id().c_str(), spec.title().c_str());
      }
      return 0;
    }
    if (args.out.empty()) {
      std::fprintf(stderr,
                   "usage: camp_figures --figure all --out <dir> "
                   "[--scale smoke|paper|tiny] [--seed N] "
                   "[--format csv|json|both] [--timing] [--plots] "
                   "[--list]\n");
      return 2;
    }
    const bool csv = args.format == "csv" || args.format == "both";
    const bool json = args.format == "json" || args.format == "both";
    if (!csv && !json) {
      throw std::invalid_argument("unknown format '" + args.format +
                                  "' (want csv|json|both)");
    }

    figures::FigureOptions options;
    options.scale = scale_for(args.scale);
    options.seed = args.seed;
    options.timing = args.timing;
    const figures::FigureRunner runner(options);

    const std::filesystem::path out_dir(args.out);
    std::filesystem::create_directories(out_dir);

    std::printf("scale=%s seed=%llu timing=%s out=%s\n",
                options.scale.name.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.timing ? "on" : "off", out_dir.string().c_str());
    for (const std::string& id :
         figures::FigureRunner::resolve_selection(args.figure)) {
      const figures::FigureResult result = runner.run(id);
      if (csv) {
        write_file(out_dir / (id + ".csv"), figures::to_csv(result));
      }
      if (json) {
        write_file(out_dir / (id + ".json"), figures::to_json(result));
      }
      if (args.plots) {
        write_file(out_dir / (id + ".gp"), figures::to_gnuplot(result));
      }
      std::printf("  %-14s %4zu rows\n", id.c_str(), result.rows.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camp_figures: %s\n", e.what());
    return 2;
  }
}
