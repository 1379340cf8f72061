#include "runner/experiment.h"

namespace cfds::runner {

const char* estimator_kind_name(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kMcFalseDetection: return "mc_false_detection";
    case EstimatorKind::kMcFalseDetectionOnCh: return "mc_false_detection_on_ch";
    case EstimatorKind::kMcIncompleteness: return "mc_incompleteness";
    case EstimatorKind::kStackFalseDetection: return "stack_false_detection";
    case EstimatorKind::kStackFalseDetectionOnCh:
      return "stack_false_detection_on_ch";
    case EstimatorKind::kStackIncompleteness: return "stack_incompleteness";
  }
  return "unknown";
}

bool is_full_stack(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kStackFalseDetection:
    case EstimatorKind::kStackFalseDetectionOnCh:
    case EstimatorKind::kStackIncompleteness:
      return true;
    default:
      return false;
  }
}

ExperimentSpec ExperimentSpec::for_kind(EstimatorKind kind) {
  ExperimentSpec spec;
  spec.kind = kind;
  spec.name = estimator_kind_name(kind);
  switch (kind) {
    case EstimatorKind::kStackFalseDetection:
    case EstimatorKind::kStackIncompleteness:
      // Figures 5 and 7 condition on the watched node sitting on the cluster
      // circumference; deputies are disabled because a false DCH takeover
      // re-broadcasts the update through a channel the analysis omits.
      spec.pin_edge_node = true;
      spec.pin_deputy_center = false;
      spec.num_deputies = 0;
      break;
    case EstimatorKind::kStackFalseDetectionOnCh:
      // Figure 6 conditions on the primary DCH at the cluster centre (q = 1).
      spec.pin_edge_node = false;
      spec.pin_deputy_center = true;
      spec.num_deputies = 1;
      break;
    default:
      break;  // the kMc* kinds take their conditioning from FastMcConfig
  }
  return spec;
}

std::vector<GridPoint> make_grid(const std::vector<int>& ns,
                                 const std::vector<double>& ps) {
  std::vector<GridPoint> grid;
  grid.reserve(ns.size() * ps.size());
  for (int n : ns) {
    for (double p : ps) grid.push_back(GridPoint{n, p});
  }
  return grid;
}

}  // namespace cfds::runner
