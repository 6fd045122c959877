#include "probes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <cmath>
#include <vector>

#include "common.hpp"
#include "grid/matrix.hpp"
#include "kernels/dispatch.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/context.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;  // keeps timed loops from being folded away

template <typename Spec>
double d_rate(std::size_t b, double min_seconds, double diag) {
  const gs::GepKernels<Spec> kernels(
      gs::KernelConfig::recursive(4, 1).with_base(gs::KernelBase::kSimd));
  gs::Rng rng(b);
  auto tile = [&](double lo, double hi) {
    gs::Matrix<double> m(b, b);
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t j = 0; j < b; ++j) m(i, j) = rng.uniform(lo, hi);
    }
    return m;
  };
  gs::Matrix<double> x = tile(-1.0, 1.0);
  const gs::Matrix<double> u = tile(-1.0, 1.0);
  const gs::Matrix<double> v = tile(-1.0, 1.0);
  gs::Matrix<double> w = tile(-1.0, 1.0);
  for (std::size_t i = 0; i < b; ++i) w(i, i) = diag;
  kernels.d(x.span(), u.span(), v.span(), w.span());  // warm caches
  long long calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (calls < 3 || elapsed < min_seconds) {
    kernels.d(x.span(), u.span(), v.span(), w.span());
    ++calls;
    elapsed = seconds_since(t0);
  }
  g_sink = g_sink + x(b / 2, b / 2);
  return double(calls) * double(b) * double(b) * double(b) / elapsed / 1e9;
}

// Register-tiled micro-kernel: kRows broadcast operands × kCols vectors of
// accumulators, streaming a kDepth-long panel from L1. The accumulator tile
// is sized to the vector register file.
constexpr int kDepth = 128;

#if defined(__AVX512F__)
constexpr int kRows = 8;
constexpr int kCols = 3;
using Vec = __m512d;
constexpr int kLanes = 8;
inline Vec vset1(double x) { return _mm512_set1_pd(x); }
inline Vec vload(const double* p) { return _mm512_loadu_pd(p); }
inline Vec vminplus(Vec acc, Vec a, Vec b) {
  return _mm512_min_pd(acc, _mm512_add_pd(a, b));
}
inline Vec vfnmadd(Vec acc, Vec a, Vec b) { return _mm512_fnmadd_pd(a, b, acc); }
inline double vfirst(Vec x) { return _mm512_cvtsd_f64(x); }
#elif defined(__AVX2__) && defined(__FMA__)
constexpr int kRows = 4;
constexpr int kCols = 3;
using Vec = __m256d;
constexpr int kLanes = 4;
inline Vec vset1(double x) { return _mm256_set1_pd(x); }
inline Vec vload(const double* p) { return _mm256_loadu_pd(p); }
inline Vec vminplus(Vec acc, Vec a, Vec b) {
  return _mm256_min_pd(acc, _mm256_add_pd(a, b));
}
inline Vec vfnmadd(Vec acc, Vec a, Vec b) { return _mm256_fnmadd_pd(a, b, acc); }
inline double vfirst(Vec x) { return _mm256_cvtsd_f64(x); }
#else
constexpr int kRows = 4;
constexpr int kCols = 2;
using Vec = double;
constexpr int kLanes = 1;
inline Vec vset1(double x) { return x; }
inline Vec vload(const double* p) { return *p; }
inline Vec vminplus(Vec acc, Vec a, Vec b) {
  return a + b < acc ? a + b : acc;
}
inline Vec vfnmadd(Vec acc, Vec a, Vec b) { return std::fma(-a, b, acc); }
inline double vfirst(Vec x) { return x; }
#endif

template <bool kFma>
double peak_rate(double min_seconds) {
  std::vector<double> u(kRows * kDepth), v(kDepth * kCols * kLanes);
  gs::Rng rng(7);
  for (double& x : u) x = rng.uniform(0.5e-3, 1.0e-3);
  for (double& x : v) x = rng.uniform(0.5e-3, 1.0e-3);
  Vec acc[kRows][kCols];
  for (auto& row : acc) {
    for (Vec& a : row) a = vset1(1.0);
  }
  const double per_pass = double(kRows) * kCols * kLanes * kDepth;
  long long passes = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (passes < 1000 || elapsed < min_seconds) {
    for (int rep = 0; rep < 1000; ++rep) {
      for (int k = 0; k < kDepth; ++k) {
        const double* vk = v.data() + k * kCols * kLanes;
#pragma GCC unroll 16
        for (int r = 0; r < kRows; ++r) {
          const Vec a = vset1(u[static_cast<std::size_t>(r * kDepth + k)]);
#pragma GCC unroll 4
          for (int c = 0; c < kCols; ++c) {
            const Vec b = vload(vk + c * kLanes);
            acc[r][c] = kFma ? vfnmadd(acc[r][c], a, b) : vminplus(acc[r][c], a, b);
          }
        }
      }
    }
    passes += 1000;
    elapsed = seconds_since(t0);
  }
  double s = 0.0;
  for (auto& row : acc) {
    for (Vec& a : row) s += vfirst(a);
  }
  g_sink = g_sink + s;
  return double(passes) * per_pass / elapsed / 1e9;
}

}  // namespace

double ge_d_gupd_per_s(std::size_t b, double min_seconds) {
  // A dominant pivot diagonal keeps repeated updates finite.
  return d_rate<gs::GaussianEliminationSpec>(b, min_seconds, 1.0e3);
}

double fw_d_gupd_per_s(std::size_t b, double min_seconds) {
  return d_rate<gs::FloydWarshallSpec>(b, min_seconds, 0.0);
}

PeakRates measure_peak(double min_seconds) {
  PeakRates p;
  p.minplus_gupd_per_s = peak_rate<false>(min_seconds);
  p.fma_gupd_per_s = peak_rate<true>(min_seconds);
  return p;
}

double dispatch_us_per_task(const sparklet::ClusterConfig& cluster, int r,
                            int graphs) {
  sparklet::SparkContext sc(cluster);
  const int executors = cluster.num_executors();
  // One k-step of the GEP dataflow: A, then the pivot row (B) and column
  // (C), then every trailing tile (D) after its row and column tiles.
  std::vector<sparklet::DataflowTaskSpec> tasks;
  auto add = [&](const char* label, int i, int j, std::vector<int> deps) {
    sparklet::DataflowTaskSpec t;
    t.label = label;
    t.deps = std::move(deps);
    t.executor = (i * r + j) % executors;
    tasks.push_back(std::move(t));
    return static_cast<int>(tasks.size() - 1);
  };
  const int a = add("A", 0, 0, {});
  std::vector<int> row(static_cast<std::size_t>(r), -1);
  std::vector<int> col(static_cast<std::size_t>(r), -1);
  for (int j = 1; j < r; ++j) row[static_cast<std::size_t>(j)] = add("B", 0, j, {a});
  for (int i = 1; i < r; ++i) col[static_cast<std::size_t>(i)] = add("C", i, 0, {a});
  for (int i = 1; i < r; ++i) {
    for (int j = 1; j < r; ++j) {
      add("D", i, j,
          {col[static_cast<std::size_t>(i)], row[static_cast<std::size_t>(j)]});
    }
  }
  const auto noop = [](int) {};
  sc.run_task_graph("dispatch-probe-warmup", tasks, noop);
  const auto t0 = Clock::now();
  for (int g = 0; g < graphs; ++g) sc.run_task_graph("dispatch-probe", tasks, noop);
  const double elapsed = seconds_since(t0);
  return elapsed * 1e6 / (double(graphs) * double(tasks.size()));
}

}  // namespace perfbench
