// attribution.hpp — wall-clock attribution of one traced solve to layers,
// from the spans obs::Tracer records (job → iteration → phase → action →
// stage → task → kernel).
//
// A span's self time is the part of its interval that none of its children
// covers. Children may run on other threads (task spans on pool lanes nest
// under the driver's stage span), so several spans can be "self" at the same
// instant: every active span with no active child is a leaf, and each
// instant of the solve is split evenly over the leaves active at it. Summed
// over layers, the self times plus the residue (instants no span covers)
// equal the solve's wall time by construction. What can go wrong is the
// span tree itself: a kernel span that is not nested in a running task
// span would count as a leaf beside its task, so such spans are counted,
// as are leaf counts that go negative or do not return to zero.
#pragma once

#include <array>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

enum class Layer : int {
  kKernelA = 0,     ///< kernel spans "A"
  kKernelBC,        ///< kernel spans "B" / "C"
  kKernelD,         ///< kernel spans "D" / "Dbatch"
  kNestedKernel,    ///< kernel spans of the nested engine
  kTask,            ///< sparklet task spans (pool lanes), minus kernels
  kCheckpoint,      ///< sparklet "checkpoint" stage spans
  kStage,           ///< other sparklet stage and action spans (driver side)
  kDriver,          ///< job / iteration / phase spans (driver serial work)
  kCount
};

struct LayerTimes {
  std::array<double, static_cast<int>(Layer::kCount)> self_s{};
  double residue_s = 0.0;   ///< solve wall time no span covers
  double wall_s = 0.0;      ///< the attributed window
  double task_span_s = 0.0; ///< Σ task-span wall (lane-seconds busy)
  long long kernel_calls = 0;         ///< GEP kernel spans
  long long nested_kernel_calls = 0;  ///< nested-engine kernel spans
  long long unlinked_kernels = 0;     ///< kernel spans without a running task parent
  long long leaf_count_errors = 0;    ///< negative or unbalanced leaf counts

  double& of(Layer l) { return self_s[static_cast<int>(l)]; }
  double of(Layer l) const { return self_s[static_cast<int>(l)]; }
  double attributed_s() const;
  void add(const LayerTimes& o);
};

/// Attribute the window [t0, t1] (tracer wall clock) of one solve. With
/// `nested`, kernel spans count as nested-engine kernels.
LayerTimes attribute_spans(const std::vector<obs::Span>& spans, double t0,
                           double t1, bool nested);

}  // namespace perfbench
