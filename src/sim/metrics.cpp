#include "sim/metrics.hpp"

#include <fstream>
#include <stdexcept>

#include "common/vec_math.hpp"

namespace pdsl::sim {

double consensus_distance(const std::vector<std::vector<float>>& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (const auto& m : models) acc += l2_distance(m, avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const std::vector<std::vector<float>>& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (const auto& m : models) ptrs.push_back(&m);
  return mean_of(ptrs);
}

double consensus_distance(const fleet::LazyMatrix& models) {
  if (models.empty()) return 0.0;
  const auto avg = average_model(models);
  double acc = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) acc += l2_distance(models[i], avg);
  return acc / static_cast<double>(models.size());
}

std::vector<float> average_model(const fleet::LazyMatrix& models) {
  if (models.empty()) throw std::invalid_argument("average_model: no models");
  std::vector<const std::vector<float>*> ptrs;
  ptrs.reserve(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) ptrs.push_back(&models[i]);
  return mean_of(ptrs);
}

std::string deterministic_diff(const RoundMetrics& a, const RoundMetrics& b) {
  std::string diff;
  for_each_column(
      [&](const MetricColumn& c, const auto& x, const auto& y) {
        if (c.wall_clock || x == y) return;
        diff += (diff.empty() ? "" : ", ") + c.name;
      },
      a, b);
  return diff;
}

void write_metrics_csv(const std::string& path, const std::string& run_label,
                       const std::vector<RoundMetrics>& series, bool wall_clock) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_metrics_csv: cannot open " + path);
  // Ends a line with the deterministic cells, then (with `wall_clock`) the
  // wall-clock ones.
  const auto end_line = [&](const auto& cell, const auto&... m) {
    for (const bool clock : {false, true}) {
      if (clock && !wall_clock) break;
      for_each_column(
          [&](const MetricColumn& c, const auto&... v) {
            if (c.wall_clock == clock) cell(c, v...);
          },
          m...);
    }
    out << '\n';
  };
  out << "run";
  end_line([&](const MetricColumn& c) { out << ',' << c.name; });
  for (const auto& m : series) {
    out << run_label;
    end_line([&](const MetricColumn&, const auto& v) { out << ',' << v; }, m);
  }
}

}  // namespace pdsl::sim
