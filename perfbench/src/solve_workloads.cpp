// solve_workloads.cpp — the three one-shot solve workloads (ge-bigtile,
// fw-smalltile, viterbi-rows) and the driver they share: set-up, one
// untimed warm-up solve, a timed phase with tracing off, a self-test of the
// output check, and — with --trace 1 — a traced phase attributed to layers,
// the outside-in probes and the serial baseline.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attribution.hpp"
#include "baseline/nested_reference.hpp"
#include "baseline/reference.hpp"
#include "common.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "nested/nested_driver.hpp"
#include "probes.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using Outcome = gepspark::SolveOutcome<double>;
using Cell = std::pair<std::size_t, std::size_t>;

// Every solve workload runs the rec4 SIMD kernel on 2 nodes × 2 cores.
constexpr int kNodes = 2;
constexpr int kCores = 2;
constexpr int kSlots = kNodes * kCores;
constexpr int kMinSolves = 3;
constexpr int kSampleRows = 8;

gepspark::SolverOptions base_options(std::size_t block,
                                     gepspark::Strategy strategy,
                                     gepspark::ScheduleMode schedule) {
  gepspark::SolverOptions opt;
  opt.block_size = block;
  opt.strategy = strategy;
  opt.schedule = schedule;
  opt.kernel =
      gs::KernelConfig::recursive(4, 1).with_base(gs::KernelBase::kSimd);
  return opt;
}

std::vector<std::size_t> sample_rows(std::size_t n, std::uint64_t seed) {
  gs::Rng rng(seed ^ 0x5a3b1e5ull);
  std::vector<std::size_t> rows;
  for (int i = 0; i < kSampleRows; ++i) rows.push_back(rng.uniform_u64(n));
  return rows;
}

// ------------------------------------------------------------ ge-bigtile

/// GE without pivoting, n=2048, b=256, barrier schedule, IM (Listing 1).
struct GeBigtile {
  static constexpr std::size_t kN = 2048;
  static constexpr bool kNested = false;
  gs::Matrix<double> input;
  std::vector<std::size_t> rows;
  std::vector<double> x, ax, ax_scale;  // Freivalds vector, A·x, Σ|A||x|
  std::uint64_t seed = 1;

  void generate(std::uint64_t s) {
    seed = s;
    input = gs::workload::diagonally_dominant_matrix(kN, seed);
  }
  void prepare_oracle() {
    rows = sample_rows(kN, seed);
    gs::Rng rng(seed ^ 0xf7e1d5ull);
    x.resize(kN);
    for (double& v : x) v = rng.uniform(0.5, 1.5);
    ax.assign(kN, 0.0);
    ax_scale.assign(kN, 0.0);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t j = 0; j < kN; ++j) {
        ax[i] += input(i, j) * x[j];
        ax_scale[i] += std::abs(input(i, j)) * x[j];
      }
    }
  }

  Outcome solve(sparklet::SparkContext& sc) const {
    return gepspark::spark_gaussian_elimination(
        sc, input,
        base_options(256, gepspark::Strategy::kInMemory,
                     gepspark::ScheduleMode::kBarrier));
  }

  /// max |L·U − A| over one row, the row-restricted form of
  /// gs::baseline::lu_residual (same k-ascending summation order).
  double residual_row(const gs::Matrix<double>& e, std::size_t i) const {
    std::vector<double> acc(kN, 0.0);
    for (std::size_t k = 0; k < i; ++k) {
      const double l = e(i, k) / e(k, k);
      for (std::size_t j = k + 1; j < kN; ++j) acc[j] += l * e(k, j);
    }
    double worst = 0.0;
    for (std::size_t j = 0; j < kN; ++j) {
      worst = std::max(worst, std::abs(acc[j] + e(i, j) - input(i, j)));
    }
    return worst;
  }

  /// Freivalds' test over the whole table: L·(U·x) must equal A·x. One
  /// wrong cell of L or U moves some row of the product by about
  /// x_j >= 0.5 (the pivots dominate their rows), far above the ~1e-10
  /// rounding of a correct factorisation.
  std::string check_product(const gs::Matrix<double>& e) const {
    std::vector<double> y(kN, 0.0);
    for (std::size_t k = 0; k < kN; ++k) {
      for (std::size_t j = k; j < kN; ++j) y[k] += e(k, j) * x[j];
    }
    for (std::size_t i = 0; i < kN; ++i) {
      double z = y[i];
      for (std::size_t k = 0; k < i; ++k) z += e(i, k) / e(k, k) * y[k];
      if (!(std::abs(z - ax[i]) <= 1e-9 * ax_scale[i])) {
        return gs::strfmt("L·U·x differs from A·x by %.3g in row %zu",
                          std::abs(z - ax[i]), i);
      }
    }
    return "";
  }

  std::string check(const gs::Matrix<double>& out) const {
    for (std::size_t i : rows) {
      // Rounding leaves about n·ε·max|A| ≈ 2e-10 (rows sum to ~n/2); a
      // wrong elimination leaves residuals of order 1.
      const double r = residual_row(out, i);
      if (!(r <= 1e-9 * double(kN))) {
        return gs::strfmt("LU residual %.3g in row %zu", r, i);
      }
    }
    return check_product(out);
  }

  /// Cells the self-test perturbs, one at a time: one in a sampled
  /// residual row, and one of L outside the sampled rows, which no residual
  /// row reads, so only the product test can catch it.
  std::vector<Cell> selftest_cells(gs::Rng& rng) const {
    Cell l_cell;
    do {
      l_cell = {rng.uniform_u64(kN), rng.uniform_u64(kN)};
    } while (l_cell.first <= l_cell.second ||
             std::find(rows.begin(), rows.end(), l_cell.first) != rows.end());
    return {{rows[0], rng.uniform_u64(kN)}, l_cell};
  }

  std::string baseline(const gs::Matrix<double>& out, double* seconds) const {
    gs::Matrix<double> ref = input;
    const auto t0 = Clock::now();
    gs::baseline::reference_gaussian_elimination(ref);
    *seconds = seconds_since(t0);
    return compare_tables(out, ref);
  }
};

// ---------------------------------------------------------- fw-smalltile

/// FW-APSP, n=2048, b=64, dataflow schedule, CB.
struct FwSmalltile {
  static constexpr std::size_t kN = 2048;
  static constexpr bool kNested = false;
  gs::Matrix<double> input;
  std::vector<std::size_t> rows;
  std::vector<std::vector<double>> row_dist;  // single-source references
  std::uint64_t seed = 1;

  void generate(std::uint64_t s) {
    seed = s;
    input = gs::workload::random_digraph({.n = kN, .seed = seed});
  }

  /// Dense Dijkstra from `src` over the input (non-negative weights).
  std::vector<double> sssp(std::size_t src) const {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(kN, inf);
    std::vector<char> done(kN, 0);
    dist[src] = 0.0;
    for (std::size_t it = 0; it < kN; ++it) {
      std::size_t u = kN;
      for (std::size_t v = 0; v < kN; ++v) {
        if (!done[v] && (u == kN || dist[v] < dist[u])) u = v;
      }
      if (u == kN || dist[u] == inf) break;
      done[u] = 1;
      for (std::size_t v = 0; v < kN; ++v) {
        const double alt = dist[u] + input(u, v);
        if (alt < dist[v]) dist[v] = alt;
      }
    }
    return dist;
  }

  void prepare_oracle() {
    rows = sample_rows(kN, seed);
    row_dist.clear();
    for (std::size_t s : rows) row_dist.push_back(sssp(s));
  }

  Outcome solve(sparklet::SparkContext& sc) const {
    return gepspark::spark_floyd_warshall(
        sc, input,
        base_options(64, gepspark::Strategy::kCollectBroadcast,
                     gepspark::ScheduleMode::kDataflow));
  }

  std::string check(const gs::Matrix<double>& out) const {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t j = 0; j < kN; ++j) {
        if (!close_enough(out(rows[r], j), row_dist[r][j], 1e-9)) {
          return gs::strfmt("dist(%zu,%zu) %.17g vs Dijkstra %.17g", rows[r],
                            j, out(rows[r], j), row_dist[r][j]);
        }
      }
    }
    return "";
  }

  /// The reference check covers the sampled rows only; the self-test
  /// perturbs a cell in one of them.
  std::vector<Cell> selftest_cells(gs::Rng& rng) const {
    return {{rows[0], rng.uniform_u64(kN)}};
  }

  std::string baseline(const gs::Matrix<double>& out, double* seconds) const {
    gs::Matrix<double> ref = input;
    const auto t0 = Clock::now();
    gs::baseline::reference_floyd_warshall(ref);
    *seconds = seconds_since(t0);
    return compare_tables(out, ref);
  }
};

// ---------------------------------------------------------- viterbi-rows

/// Viterbi, 512 states, horizon 256, b=32, dataflow schedule, IM transfers.
struct ViterbiRows {
  static constexpr bool kNested = true;
  nested::ViterbiProblem prob;
  std::optional<nested::ViterbiPlan> plan;
  gs::Matrix<double> reference;
  double reference_s = 0.0;

  void generate(std::uint64_t s) {
    prob = nested::ViterbiProblem{512, 256, 8, s};
    plan.emplace(prob, 32);
  }

  void prepare_oracle() {
    const auto t0 = Clock::now();
    reference = gs::baseline::reference_viterbi(prob);
    reference_s = seconds_since(t0);
  }

  Outcome solve(sparklet::SparkContext& sc) const {
    return nested::nested_solve(
        sc, *plan,
        base_options(32, gepspark::Strategy::kInMemory,
                     gepspark::ScheduleMode::kDataflow));
  }

  std::string check(const gs::Matrix<double>& out) const {
    if (out.rows() != reference.rows() || out.cols() != reference.cols() ||
        std::memcmp(out.data(), reference.data(),
                    out.rows() * out.cols() * sizeof(double)) != 0) {
      return "trellis differs from reference_viterbi";
    }
    return "";
  }

  std::vector<Cell> selftest_cells(gs::Rng& rng) const {
    return {{rng.uniform_u64(reference.rows()),
             rng.uniform_u64(reference.cols())}};
  }

  std::string baseline(const gs::Matrix<double>&, double* seconds) const {
    *seconds = reference_s;  // timed when the oracle was prepared
    return "";
  }
};

// ---------------------------------------------------------- shared driver

/// The per-solve output check: the schedule-determinism digest against the
/// run's first output, then the workload's reference comparison.
template <typename Case>
struct Checker {
  const Case& c;
  std::optional<std::uint64_t> first_digest;

  std::string digest(const gs::Matrix<double>& out) {
    const std::uint64_t d = analysis::digest_matrix(out);
    if (!first_digest) first_digest = d;
    if (d != *first_digest) return "digest differs from the run's first solve";
    return "";
  }

  std::string operator()(const gs::Matrix<double>& out) {
    const std::string why = digest(out);
    return why.empty() ? c.check(out) : why;
  }
};

struct SolveSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sys_s = 0.0;
};

template <typename Case>
void run_solve_workload(const RunArgs& args, Case& c, Report& rep) {
  const sparklet::ClusterConfig cluster = local_cluster(kNodes, kCores);

  // Set-up: input generation + context construction. The context that is
  // solved on is set up once; spare set-ups are timed between the timed
  // solves, so the median spans the run as solve_s does (single-thread
  // speed on a shared host drifts by tens of percent within seconds).
  std::vector<double> setups;
  std::unique_ptr<sparklet::SparkContext> sc;
  {
    const auto t0 = Clock::now();
    c.generate(args.seed);
    sc = std::make_unique<sparklet::SparkContext>(cluster);
    setups.push_back(seconds_since(t0));
  }
  auto spare_setups = [&] {
    double spent = 0.0;
    do {
      Case spare;
      const auto t0 = Clock::now();
      spare.generate(args.seed);
      const sparklet::SparkContext ctx(cluster);
      const double dt = seconds_since(t0);
      setups.push_back(dt);
      spent += dt;
    } while (spent < 0.025);
  };
  c.prepare_oracle();

  Checker<Case> checker{c};
  auto checked = [&](const gs::Matrix<double>& out, const char* what) {
    const std::string why = checker(out);
    rep.tally.add(why.empty());
    if (!why.empty()) rep.fail(gs::strfmt("%s: %s", what, why.c_str()));
  };
  std::optional<Outcome> last;
  auto solve_once = [&](SolveSample* sample) -> bool {
    const Usage u0 = Usage::now();
    const auto t0 = Clock::now();
    try {
      last.emplace(c.solve(*sc));
    } catch (const std::exception& e) {
      rep.tally.add(false);
      rep.fail(gs::strfmt("solve threw: %s", e.what()));
      return false;
    }
    sample->wall_s = seconds_since(t0);
    const Usage u1 = Usage::now();
    sample->cpu_s = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
    sample->sys_s = u1.sys_s - u0.sys_s;
    return true;
  };

  // One untimed warm-up solve: the host's cold start dominates it.
  {
    SolveSample warm;
    if (solve_once(&warm)) checked(last->matrix, "warm-up solve");
  }

  // Timed phase, tracing off.
  const double untraced_budget = args.trace ? 0.5 * args.seconds : args.seconds;
  // Peak RSS is read after the first kMinSolves timed solves, so it covers
  // the same work on a fast or a slow host: a reused context keeps per-task
  // metrics, and its footprint grows with every solve.
  std::vector<SolveSample> timed;
  double peak_rss_mb = 0.0;
  const auto phase0 = Clock::now();
  while (static_cast<int>(timed.size()) < kMinSolves ||
         seconds_since(phase0) < untraced_budget) {
    SolveSample s;
    if (!solve_once(&s)) {
      if (seconds_since(phase0) > untraced_budget) break;
      continue;
    }
    timed.push_back(s);
    if (static_cast<int>(timed.size()) == kMinSolves) {
      peak_rss_mb = Usage::now().max_rss_mb;
    }
    checked(last->matrix, "timed solve");
    spare_setups();
  }

  std::vector<double> walls;
  double cpu = 0.0, sys = 0.0;
  for (const SolveSample& s : timed) {
    walls.push_back(s.wall_s);
    cpu += s.cpu_s;
    sys += s.sys_s;
  }
  rep.e2e["setup_s"] = {median(setups), "s"};
  rep.e2e["solve_s"] = {median(walls), "s"};
  rep.e2e["jobs_per_s"] = {walls.empty() ? 0.0 : double(walls.size()) / sum(walls), "1/s"};
  rep.e2e["job_p50_ms"] = {1e3 * median(walls), "ms"};
  rep.layer["job_p90_ms"] = {1e3 * quantile(walls, 0.9), "ms"};
  rep.e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};
  rep.notes.push_back(gs::strfmt(
      "solve_s: median of %zu timed solves (tracing off), p90 over the same "
      "samples; setup_s: median of %zu set-ups",
      walls.size(), setups.size()));

  // Self-test: every perturbed output must fail. The digest case goes
  // through the digest comparison alone; each reference case goes through
  // the workload's reference check alone, at a cell that check covers.
  if (last) {
    gs::Rng rng(args.seed ^ 0xbadce11ull);
    Tally selftest;
    auto expect_caught = [&](const char* check, Cell cell, auto&& run_check) {
      gs::Matrix<double> bad = last->matrix;
      double& v = bad(cell.first, cell.second);
      v = std::isfinite(v) ? v + 1.0 : 0.0;
      const bool passed = run_check(bad).empty();
      selftest.add(passed);
      if (passed) {
        rep.fail(gs::strfmt("self-test: the %s check passed perturbed cell "
                            "(%zu,%zu)",
                            check, cell.first, cell.second));
      }
    };
    expect_caught("digest",
                  Cell{rng.uniform_u64(last->matrix.rows()),
                       rng.uniform_u64(last->matrix.cols())},
                  [&](const gs::Matrix<double>& m) { return checker.digest(m); });
    for (const Cell& cell : c.selftest_cells(rng)) {
      expect_caught("reference", cell,
                    [&](const gs::Matrix<double>& m) { return c.check(m); });
    }
    rep.layer["check.selftest_fail_rate"] = {selftest.fail_rate(), "frac"};
  }

  if (!args.trace) return;

  // ---- traced run: core utilisation of the untraced phase, then a traced
  // phase attributed to layers, probes, and the serial baseline ----
  rep.layer["sparklet.core_util"] = {cpu / sum(walls), "frac"};
  rep.layer["sparklet.sys_cpu_frac"] = {cpu > 0.0 ? sys / cpu : 0.0, "frac"};

  obs::Tracer& tracer = sc->tracer();
  tracer.set_capacity(std::size_t{1} << 20);
  tracer.set_enabled(true);
  LayerTimes total;
  std::vector<double> traced_walls;
  std::size_t dropped = 0;
  const auto traced0 = Clock::now();
  while (static_cast<int>(traced_walls.size()) < kMinSolves ||
         seconds_since(traced0) < 0.5 * args.seconds) {
    tracer.clear();
    const double t0 = tracer.wall_now();
    SolveSample s;
    const bool ok = solve_once(&s);
    const double t1 = tracer.wall_now();
    dropped += tracer.dropped();
    if (!ok) {
      if (seconds_since(traced0) > 0.5 * args.seconds) break;
      continue;
    }
    checked(last->matrix, "traced solve");
    total.add(attribute_spans(tracer.spans(), t0, t1, Case::kNested));
    traced_walls.push_back(t1 - t0);
  }
  tracer.set_enabled(false);
  tracer.clear();

  const double nt = double(std::max<std::size_t>(1, traced_walls.size()));
  auto per_solve = [&](Layer l) { return total.of(l) / nt; };
  rep.layer["kernels.a_self_s"] = {per_solve(Layer::kKernelA), "s"};
  rep.layer["kernels.bc_self_s"] = {per_solve(Layer::kKernelBC), "s"};
  rep.layer["kernels.d_self_s"] = {per_solve(Layer::kKernelD), "s"};
  rep.layer["kernels.calls"] = {double(total.kernel_calls) / nt, "count"};
  rep.layer["nested.kernel_self_s"] = {per_solve(Layer::kNestedKernel), "s"};
  rep.layer["nested.tasks"] = {double(total.nested_kernel_calls) / nt, "count"};
  rep.layer["sparklet.task_self_s"] = {per_solve(Layer::kTask), "s"};
  rep.layer["sparklet.checkpoint_self_s"] = {per_solve(Layer::kCheckpoint), "s"};
  rep.layer["sparklet.stage_self_s"] = {per_solve(Layer::kStage), "s"};
  rep.layer[Case::kNested ? "nested.driver_self_s" : "gepspark.driver_self_s"] =
      Metric{per_solve(Layer::kDriver), "s"};
  rep.layer["obs.residue_s"] = {total.residue_s / nt, "s"};
  rep.layer["obs.traced_solve_s"] = {total.wall_s / nt, "s"};
  rep.layer["obs.spans_dropped"] = {double(dropped), "count"};
  rep.layer["obs.trace_overhead_frac"] = {
      median(traced_walls) / median(walls) - 1.0, "frac"};
  rep.layer["sparklet.lane_idle_frac"] = {
      total.wall_s > 0.0 ? 1.0 - total.task_span_s / (kSlots * total.wall_s) : 0.0,
      "frac"};
  rep.notes.push_back(gs::strfmt(
      "traced: %zu solves, mean %.4f s = layer self times %.4f s + residue "
      "%.4f s",
      traced_walls.size(), total.wall_s / nt,
      (total.attributed_s() - total.residue_s) / nt, total.residue_s / nt));
  if (dropped > 0) {
    rep.fail(gs::strfmt("tracer dropped %zu spans", dropped));
  }
  if (total.unlinked_kernels > 0 || total.leaf_count_errors > 0) {
    rep.fail(gs::strfmt("span tree: %lld kernel spans outside a running task "
                        "span, %lld leaf-count errors",
                        total.unlinked_kernels, total.leaf_count_errors));
  }

  if (last) {
    const obs::JobProfile& p = last->profile;
    constexpr double kMiB = 1024.0 * 1024.0;
    rep.layer["sparklet.tasks"] = {double(p.tasks), "count"};
    rep.layer["sparklet.stages"] = {double(p.stages), "count"};
    rep.layer["sparklet.shuffle_mb"] = {double(p.shuffle_bytes) / kMiB, "MB"};
    rep.layer["sparklet.collect_mb"] = {double(p.collect_bytes) / kMiB, "MB"};
    rep.layer["sparklet.broadcast_mb"] = {double(p.broadcast_bytes) / kMiB, "MB"};
    rep.layer["sparklet.checkpoint_blocks"] = {double(p.recovery.checkpoint_blocks),
                                               "count"};
    if constexpr (Case::kNested) {
      rep.layer["nested.waves"] = {double(c.plan->waves()), "count"};
    } else {
      rep.layer["gepspark.iterations"] = {double(p.grid_r), "count"};
    }
  }

  // Outside-in probes of single layers.
  const PeakRates peak = measure_peak(0.25);
  const double ge_d = ge_d_gupd_per_s(256, 0.3);
  const double fw_d = fw_d_gupd_per_s(64, 0.3);
  rep.layer["kernels.peak_fma_gupd_per_s"] = {peak.fma_gupd_per_s, "Gupd/s"};
  rep.layer["kernels.peak_minplus_gupd_per_s"] = {peak.minplus_gupd_per_s, "Gupd/s"};
  rep.layer["kernels.ge_d_gupd_per_s"] = {ge_d, "Gupd/s"};
  rep.layer["kernels.fw_d_gupd_per_s"] = {fw_d, "Gupd/s"};
  rep.layer["kernels.ge_d_roofline_frac"] = {ge_d / peak.fma_gupd_per_s, "frac"};
  rep.layer["kernels.fw_d_roofline_frac"] = {fw_d / peak.minplus_gupd_per_s, "frac"};
  rep.notes.push_back(gs::strfmt(
      "roofline: compute peak measured in this run; D operands are cache "
      "resident (ops/byte computed: b=256 %.1f, b=64 %.1f upd/B), memory "
      "bandwidth not measured",
      d_ops_per_byte(256), d_ops_per_byte(64)));
  rep.layer["sparklet.dispatch_us"] = {
      dispatch_us_per_task(cluster, 32, 8), "us"};

  // Serial reference, measured once; its output is a full-table check.
  if (last) {
    double serial_s = 0.0;
    const std::string why = c.baseline(last->matrix, &serial_s);
    rep.tally.add(why.empty());
    if (!why.empty()) rep.fail("serial baseline: " + why);
    rep.layer["baseline.serial_s"] = {serial_s, "s"};
  }
}

}  // namespace

void run_ge_bigtile(const RunArgs& args, Report& report) {
  GeBigtile c;
  run_solve_workload(args, c, report);
}

void run_fw_smalltile(const RunArgs& args, Report& report) {
  FwSmalltile c;
  run_solve_workload(args, c, report);
}

void run_viterbi_rows(const RunArgs& args, Report& report) {
  ViterbiRows c;
  run_solve_workload(args, c, report);
}

}  // namespace perfbench
