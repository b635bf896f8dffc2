// The experiment table behind bohm_bench: the paper's Section 4 figures
// and the ablations as data. Each axes[0] x axes[1] x system combination
// is one point, built as base -> axes[0] level -> axes[1] level -> system.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness/point.h"
#include "harness/report.h"

namespace bohm {
namespace bench {

/// One value of an axis: the parameters it prints (JSON params and table
/// columns) and how it changes the point. One level pins a parameter.
struct Level {
  Params params;
  std::function<void(PointSpec&)> apply;
};

struct System {
  std::string label;  ///< the JSON "system"
  Params params;
  std::function<void(PointSpec&)> apply;
};

struct Experiment {
  const char* name;   ///< command-line name and JSON "figure"
  const char* title;
  const char* shape;  ///< expected-shape note printed under the table
  PointSpec base;
  std::vector<std::vector<Level>> axes;  ///< at most two; [0] outermost
  std::vector<System> systems;           ///< the innermost loop
  /// PointFields keys printed after the standard columns; "<key>/s"
  /// prints the key's value per second of the window.
  std::vector<std::string> extra_keys = {};
  uint32_t smoke_measure_ms = 50;
  bool pct_of_first_system = false;  ///< Figure 9's "% of Bohm" column
  bool check_migrations = false;     ///< --smoke: Bohm points migrate
  bool check_floor = false;          ///< --smoke: 1-thread throughput floor
};

/// The experiment table; `smoke` selects the CTest sizes.
std::vector<Experiment> Experiments(bool smoke);

}  // namespace bench
}  // namespace bohm
