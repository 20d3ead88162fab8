#include "spans.h"

#include <memory>
#include <mutex>

namespace camp::perfbench {

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct OpenSpan {
  SpanName name;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
};

struct ThreadSpans {
  SpanReport totals;
  std::vector<OpenSpan> stack;
};

bool keeps_samples(SpanName name) {
  switch (name) {
    case SpanName::kClientExecute:
    case SpanName::kNodeExecute:
    case SpanName::kPeerGet:
    case SpanName::kPeerSet:
      return true;
    default:
      return false;
  }
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// Owned jointly by the registry and the recording thread, so a server
// worker's totals survive the worker's exit until collect() reads them.
std::vector<std::shared_ptr<ThreadSpans>>& registry() {
  static std::vector<std::shared_ptr<ThreadSpans>> r;
  return r;
}

ThreadSpans& local() {
  thread_local std::shared_ptr<ThreadSpans> spans = [] {
    auto s = std::make_shared<ThreadSpans>();
    s->stack.reserve(16);
    std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(s);
    return s;
  }();
  return *spans;
}

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kBatch: return "batch";
    case SpanName::kEncode: return "protocol.encode";
    case SpanName::kDecode: return "protocol.decode";
    case SpanName::kStoreGet: return "store.get";
    case SpanName::kStoreSet: return "store.set";
    case SpanName::kFormat: return "protocol.format";
    case SpanName::kPolicyGet: return "policy.get";
    case SpanName::kPolicyPut: return "policy.put";
    case SpanName::kPolicyEvict: return "policy.evict";
    case SpanName::kClientExecute: return "client.execute";
    case SpanName::kNodeExecute: return "cluster.node_execute";
    case SpanName::kPeerGet: return "cluster.peer_get";
    case SpanName::kPeerSet: return "cluster.peer_set";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanReport Tracer::collect() {
  SpanReport merged;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& thread : registry()) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      SpanTotals& into = merged[i];
      SpanTotals& from = thread->totals[i];
      into.count += from.count;
      into.total_ns += from.total_ns;
      into.self_ns += from.self_ns;
      into.samples_ns.insert(into.samples_ns.end(), from.samples_ns.begin(),
                             from.samples_ns.end());
      from = SpanTotals{};
    }
  }
  return merged;
}

ScopedSpan::ScopedSpan(SpanName name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  local().stack.push_back(OpenSpan{name, now_ns(), 0});
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = now_ns();
  ThreadSpans& spans = local();
  const OpenSpan open = spans.stack.back();
  spans.stack.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  SpanTotals& t = spans.totals[static_cast<std::size_t>(open.name)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  if (keeps_samples(open.name)) t.samples_ns.push_back(duration);
  if (!spans.stack.empty()) spans.stack.back().child_ns += duration;
}

}  // namespace camp::perfbench
