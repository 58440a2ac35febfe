#include "trace/critical_path.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "common/types.hpp"

namespace cods {

CategorySeconds& CategorySeconds::operator+=(const CategorySeconds& o) {
  compute += o.compute;
  shm += o.shm;
  net += o.net;
  lock_wait += o.lock_wait;
  redistribute += o.redistribute;
  control += o.control;
  return *this;
}

namespace {

bool is_ledger(const TraceSpan& s) {
  return (s.flags & TraceFlags::kLedger) != 0;
}
bool is_sequential(const TraceSpan& s) {
  return (s.flags & TraceFlags::kSequential) != 0;
}

struct Index {
  std::vector<TraceSpan> spans;                  // sorted by id
  std::unordered_map<u64, std::vector<size_t>> children;  // parent -> index

  explicit Index(const std::vector<TraceSpan>& in) : spans(in) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                return a.id < b.id;
              });
    for (size_t i = 0; i < spans.size(); ++i) {
      children[spans[i].parent].push_back(i);
    }
  }
};

/// Self time of a container: duration minus the durations of its
/// sequential direct children (overlay leaves share the interval and are
/// excluded). Clamped at 0 against floating-point residue.
double self_time(const Index& idx, size_t i) {
  const TraceSpan& s = idx.spans[i];
  double child_sum = 0.0;
  const auto it = idx.children.find(s.id);
  if (it != idx.children.end()) {
    for (size_t c : it->second) {
      if (is_sequential(idx.spans[c])) child_sum += idx.spans[c].duration;
    }
  }
  return std::max(0.0, s.duration - child_sum);
}

/// Attributes one span's self time into `out` per the rules documented
/// in the header.
void attribute(const Index& idx, size_t i, CategorySeconds& out) {
  const TraceSpan& s = idx.spans[i];
  if (is_ledger(s)) {
    if (!is_sequential(s)) return;  // overlay: covered by the pull self
    (s.cat == SpanCategory::kTransferNet ? out.net : out.shm) += s.duration;
    return;
  }
  const double self = self_time(idx, i);
  switch (s.cat) {
    case SpanCategory::kWave:
    case SpanCategory::kTask:
      out.compute += self;
      return;
    case SpanCategory::kLockWait:
      out.lock_wait += self;
      return;
    case SpanCategory::kRedistribute:
      out.redistribute += self;
      return;
    case SpanCategory::kPull: {
      // Split the batch interval by the transport mix of its overlay ops.
      u64 shm_bytes = 0;
      u64 net_bytes = 0;
      const auto it = idx.children.find(s.id);
      if (it != idx.children.end()) {
        for (size_t c : it->second) {
          const TraceSpan& child = idx.spans[c];
          if (!is_ledger(child) || is_sequential(child)) continue;
          (child.cat == SpanCategory::kTransferNet ? net_bytes : shm_bytes) +=
              child.bytes;
        }
      }
      const u64 total = shm_bytes + net_bytes;
      if (total == 0) {
        out.control += self;
      } else {
        const double net_frac =
            static_cast<double>(net_bytes) / static_cast<double>(total);
        out.net += self * net_frac;
        out.shm += self * (1.0 - net_frac);
      }
      return;
    }
    default:  // kGet / kPut / kRpc / kCollective / kRecv shells
      out.control += self;
      return;
  }
}

/// Depth-first attribution over a span's whole subtree.
void attribute_subtree(const Index& idx, size_t root, CategorySeconds& out) {
  std::vector<size_t> stack{root};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    attribute(idx, i, out);
    const auto it = idx.children.find(idx.spans[i].id);
    if (it != idx.children.end()) {
      for (size_t c : it->second) stack.push_back(c);
    }
  }
}

/// The app a subtree's ledger bytes belong to, grouped per wave.
void collect_wave_bytes(const Index& idx, size_t wave_i, WaveBreakdown& wave) {
  std::map<i32, WaveAppBytes> per_app;
  std::vector<size_t> stack{wave_i};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    const TraceSpan& s = idx.spans[i];
    if (is_ledger(s)) {
      WaveAppBytes& b = per_app[s.app_id];
      b.app_id = s.app_id;
      ++b.transfers;
      const bool net = s.cat == SpanCategory::kTransferNet;
      if (s.cls == TrafficClass::kInterApp) {
        (net ? b.inter_net : b.inter_shm) += s.bytes;
      } else if (s.cls == TrafficClass::kIntraApp) {
        (net ? b.intra_net : b.intra_shm) += s.bytes;
      }
    }
    const auto it = idx.children.find(s.id);
    if (it != idx.children.end()) {
      for (size_t c : it->second) stack.push_back(c);
    }
  }
  for (auto& [app, bytes] : per_app) wave.apps.push_back(bytes);
}

}  // namespace

TraceAnalysis analyze_trace(const std::vector<TraceSpan>& spans) {
  const Index idx(spans);
  TraceAnalysis out;

  for (const TraceSpan& s : idx.spans) {
    if (!is_ledger(s)) continue;
    ++out.ledger_spans;
    if (s.cls != TrafficClass::kControl) {
      (s.cat == SpanCategory::kTransferNet ? out.net_bytes : out.shm_bytes) +=
          s.bytes;
    }
  }

  // Waves, in server program order (id order on the server track).
  for (size_t i = 0; i < idx.spans.size(); ++i) {
    const TraceSpan& s = idx.spans[i];
    if (s.cat != SpanCategory::kWave) continue;
    WaveBreakdown wave;
    wave.span_id = s.id;
    wave.wave_index = s.detail;
    wave.begin = s.begin;
    wave.duration = s.duration;
    out.total_time += s.duration;

    // Critical task: the last-ending direct task child (smallest id wins
    // ties, so the choice is deterministic).
    size_t critical = idx.spans.size();
    const auto it = idx.children.find(s.id);
    if (it != idx.children.end()) {
      for (size_t c : it->second) {
        if (idx.spans[c].cat != SpanCategory::kTask) continue;
        attribute_subtree(idx, c, wave.time);
        if (critical == idx.spans.size() ||
            idx.spans[c].end() > idx.spans[critical].end()) {
          critical = c;
        }
      }
    }
    CategorySeconds wave_self;
    attribute(idx, i, wave_self);
    wave.time += wave_self;

    out.critical_path.push_back(s.id);
    wave.critical_time = wave_self;
    if (critical != idx.spans.size()) {
      wave.critical_task = idx.spans[critical].id;
      out.critical_path.push_back(wave.critical_task);
      attribute_subtree(idx, critical, wave.critical_time);
      out.critical_length += idx.spans[critical].end() - s.begin;
    }
    out.critical += wave.critical_time;
    collect_wave_bytes(idx, i, wave);
    out.waves.push_back(std::move(wave));
  }
  return out;
}

namespace {

void print_categories(std::ostream& os, const CategorySeconds& t) {
  os << "compute " << format_seconds(t.compute) << ", shm "
     << format_seconds(t.shm) << ", net " << format_seconds(t.net) << ", lock "
     << format_seconds(t.lock_wait) << ", redist "
     << format_seconds(t.redistribute) << ", control "
     << format_seconds(t.control);
}

}  // namespace

std::string TraceAnalysis::report() const {
  std::ostringstream os;
  os << "trace analysis: " << waves.size() << " wave(s), total "
     << format_seconds(total_time) << ", ledger " << ledger_spans
     << " transfer(s), " << format_bytes(shm_bytes) << " shm / "
     << format_bytes(net_bytes) << " net\n";
  for (const WaveBreakdown& w : waves) {
    os << "wave " << w.wave_index << ": " << format_seconds(w.duration)
       << "  [";
    print_categories(os, w.time);
    os << "]\n";
    for (const WaveAppBytes& a : w.apps) {
      os << "  app " << a.app_id << ": inter "
         << format_bytes(a.inter_shm) << " shm / "
         << format_bytes(a.inter_net) << " net, intra "
         << format_bytes(a.intra_shm) << " shm / "
         << format_bytes(a.intra_net) << " net (" << a.transfers
         << " transfers)\n";
    }
  }
  os << "critical path: " << format_seconds(critical_length) << "  [";
  print_categories(os, critical);
  os << "]\n";
  return os.str();
}

std::string reconcile_with_transfer_log(
    const std::vector<TraceSpan>& spans,
    const std::vector<TransferRecord>& log) {
  using Entry = std::tuple<i32, int, bool, u64, double>;
  std::vector<Entry> from_spans;
  std::vector<Entry> from_log;
  for (const TraceSpan& s : spans) {
    if (!is_ledger(s)) continue;
    from_spans.emplace_back(s.app_id, static_cast<int>(s.cls),
                            s.cat == SpanCategory::kTransferNet, s.bytes,
                            s.duration);
  }
  for (const TransferRecord& r : log) {
    from_log.emplace_back(r.app_id, static_cast<int>(r.cls), r.via_network,
                          r.bytes, r.model_time);
  }
  std::sort(from_spans.begin(), from_spans.end());
  std::sort(from_log.begin(), from_log.end());
  if (from_spans == from_log) return "";
  std::ostringstream os;
  os << "trace ledger does not reconcile with the transfer log: "
     << from_spans.size() << " ledger span(s) vs " << from_log.size()
     << " journal record(s)";
  const size_t n = std::min(from_spans.size(), from_log.size());
  for (size_t i = 0; i < n; ++i) {
    if (from_spans[i] == from_log[i]) continue;
    const auto& [app, cls, net, bytes, time] = from_spans[i];
    const auto& [lapp, lcls, lnet, lbytes, ltime] = from_log[i];
    os << "; first divergence at #" << i << ": span(app=" << app
       << ",cls=" << cls << ",net=" << net << ",bytes=" << bytes
       << ",t=" << time << ") vs log(app=" << lapp << ",cls=" << lcls
       << ",net=" << lnet << ",bytes=" << lbytes << ",t=" << ltime << ")";
    break;
  }
  return os.str();
}

}  // namespace cods
