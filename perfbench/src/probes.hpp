// probes.hpp — outside-in measurements of single layers, taken in the
// traced run: the D-kernel update rate on tiles shaped like the workloads,
// a register-tiled peak loop measured on the same host in the same run, and
// the per-task cost of SparkContext::run_task_graph on no-op tasks.
#pragma once

#include <cstddef>

#include "sparklet/cluster.hpp"

namespace perfbench {

/// Single-thread gs::GepKernels<Spec>::d rate, giga-updates per second, on
/// b×b tiles with the workloads' kernel configuration (rec4, SIMD base).
double ge_d_gupd_per_s(std::size_t b, double min_seconds);
double fw_d_gupd_per_s(std::size_t b, double min_seconds);

/// Single-thread peak of the D update with operands in registers and L1:
/// min(x, u + v) for the min-plus semiring and the fused x − u·v for GE's
/// divide-free form, giga-updates per second.
struct PeakRates {
  double minplus_gupd_per_s = 0.0;
  double fma_gupd_per_s = 0.0;
};
PeakRates measure_peak(double min_seconds);

/// Updates per byte of one D call on b×b double tiles, computed: b³ updates
/// over the tile bytes read (x, u, v) and written (x).
inline double d_ops_per_byte(std::size_t b) {
  return double(b) * double(b) * double(b) / (4.0 * double(b) * double(b) * 8.0);
}

/// Microseconds per task of run_task_graph over no-op tasks in the GEP
/// dataflow shape of an r×r tile grid (per k: A → B/C row and column → D),
/// one graph per k, on a fresh context of `cluster`.
double dispatch_us_per_task(const sparklet::ClusterConfig& cluster, int r,
                            int graphs);

}  // namespace perfbench
