#include "attribution.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

Layer layer_of(const obs::Span& s, bool nested) {
  switch (s.level) {
    case obs::SpanLevel::kKernel:
      if (nested) return Layer::kNestedKernel;
      if (s.name == "A") return Layer::kKernelA;
      if (s.name == "B" || s.name == "C") return Layer::kKernelBC;
      return Layer::kKernelD;
    case obs::SpanLevel::kTask:
      return Layer::kTask;
    case obs::SpanLevel::kStage:
      return s.name == "checkpoint" ? Layer::kCheckpoint : Layer::kStage;
    case obs::SpanLevel::kAction:
      return Layer::kStage;
    default:
      return Layer::kDriver;
  }
}

}  // namespace

double LayerTimes::attributed_s() const {
  double s = residue_s;
  for (double x : self_s) s += x;
  return s;
}

void LayerTimes::add(const LayerTimes& o) {
  for (std::size_t i = 0; i < self_s.size(); ++i) self_s[i] += o.self_s[i];
  residue_s += o.residue_s;
  wall_s += o.wall_s;
  task_span_s += o.task_span_s;
  kernel_calls += o.kernel_calls;
  nested_kernel_calls += o.nested_kernel_calls;
  unlinked_kernels += o.unlinked_kernels;
  leaf_count_errors += o.leaf_count_errors;
}

LayerTimes attribute_spans(const std::vector<obs::Span>& spans, double t0,
                           double t1, bool nested) {
  LayerTimes out;
  out.wall_s = t1 - t0;

  struct Event {
    double t;
    bool start;
    int level;  // SpanLevel; deeper spans have larger values
    int span;
  };
  std::vector<Event> events;
  events.reserve(2 * spans.size());
  std::unordered_map<std::uint64_t, int> index;
  index.reserve(spans.size());
  std::vector<Layer> layer(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    const double a = std::max(s.wall_start_s, t0);
    const double b = std::min(s.wall_end_s, t1);
    if (b <= a) continue;
    const int id = static_cast<int>(i);
    index.emplace(s.id, id);
    layer[i] = layer_of(s, nested);
    const int level = static_cast<int>(s.level);
    events.push_back({a, true, level, id});
    events.push_back({b, false, level, id});
    if (s.level == obs::SpanLevel::kTask) out.task_span_s += b - a;
    if (s.level == obs::SpanLevel::kKernel) {
      ++(nested ? out.nested_kernel_calls : out.kernel_calls);
    }
  }
  // Ends before starts at equal times, so a span handing over to its
  // successor never counts both; at equal times parents start before and
  // end after their children.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.start != y.start) return !x.start;
    return x.start ? x.level < y.level : x.level > y.level;
  });

  std::vector<int> parent(spans.size(), -1);
  for (const auto& [id, i] : index) {
    auto it = index.find(spans[static_cast<std::size_t>(i)].parent);
    if (it != index.end()) parent[static_cast<std::size_t>(i)] = it->second;
  }

  std::vector<int> active_children(spans.size(), 0);
  std::vector<char> active(spans.size(), 0);
  std::vector<char> linked(spans.size(), 0);  // counted in parent's children
  std::array<int, static_cast<int>(Layer::kCount)> leaves{};
  int total_leaves = 0;
  auto leaf = [&](int i, int delta) {
    int& n = leaves[static_cast<int>(layer[static_cast<std::size_t>(i)])];
    n += delta;
    total_leaves += delta;
    if (n < 0) ++out.leaf_count_errors;
  };

  double prev = t0;
  for (const Event& e : events) {
    const double dt = e.t - prev;
    if (dt > 0.0) {
      if (total_leaves == 0) {
        out.residue_s += dt;
      } else {
        for (std::size_t l = 0; l < leaves.size(); ++l) {
          if (leaves[l] != 0) {
            out.self_s[l] += dt * double(leaves[l]) / double(total_leaves);
          }
        }
      }
      prev = e.t;
    }
    const auto i = static_cast<std::size_t>(e.span);
    const int p = parent[i];
    const auto pi = static_cast<std::size_t>(p);
    if (e.start) {
      active[i] = 1;
      leaf(e.span, +1);
      if (p >= 0 && active[pi]) {
        linked[i] = 1;
        if (active_children[pi]++ == 0) leaf(p, -1);
      }
      if (spans[i].level == obs::SpanLevel::kKernel &&
          !(linked[i] && spans[pi].level == obs::SpanLevel::kTask)) {
        ++out.unlinked_kernels;
      }
    } else {
      if (active_children[i] == 0) leaf(e.span, -1);
      active[i] = 0;
      // A parent that ended first (or never linked this child) is untouched.
      if (linked[i] && active[pi]) {
        if (--active_children[pi] == 0) leaf(p, +1);
      }
    }
  }
  if (t1 > prev) out.residue_s += t1 - prev;
  if (total_leaves != 0) ++out.leaf_count_errors;
  return out;
}

}  // namespace perfbench
