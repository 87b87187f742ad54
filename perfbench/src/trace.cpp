#include "trace.h"

#include <chrono>
#include <fstream>
#include <utility>

#include "common.h"

namespace pb {

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* current_tracer() { return g_tracer; }
void set_current_tracer(Tracer* t) { g_tracer = t; }

Tracer::Tracer() : origin_ns_(0) { origin_ns_ = now_ns(); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

int Tracer::open(std::string name, long request) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.busy_ns = s.end_ns - s.start_ns;
  // Spans nest strictly: closing pops back to (and including) this one.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::rename(int id, std::string name) {
  spans_[static_cast<std::size_t>(id)].name = std::move(name);
}

void Tracer::aggregate(std::string name, std::int64_t ns, long calls) {
  if (calls == 0) return;
  Span s;
  s.name = std::move(name);
  s.end_ns = now_ns();
  s.start_ns = s.end_ns - ns;
  s.busy_ns = ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.calls = calls;
  spans_.push_back(std::move(s));
}

bool Tracer::has_ancestor(int index, const std::string& prefix) const {
  for (int p = spans_[static_cast<std::size_t>(index)].parent; p >= 0;
       p = spans_[static_cast<std::size_t>(p)].parent) {
    if (spans_[static_cast<std::size_t>(p)].name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

Tracer::Totals Tracer::totals(const std::string& name,
                              const std::string& under) const {
  std::vector<std::int64_t> child_busy(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_busy[static_cast<std::size_t>(s.parent)] += s.busy_ns;
  }
  Totals t;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    if (!under.empty() && !has_ancestor(static_cast<int>(i), under)) continue;
    t.busy_s += static_cast<double>(s.busy_ns) * 1e-9;
    t.self_s += static_cast<double>(s.busy_ns - child_busy[i]) * 1e-9;
    t.calls += s.calls;
  }
  return t;
}

void Tracer::write(const std::string& path, const std::string& label) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObject()
               .str("trace", label)
               .num("id", static_cast<long>(i))
               .str("name", s.name)
               .num("start_ns", static_cast<long>(s.start_ns))
               .num("end_ns", static_cast<long>(s.end_ns))
               .num("busy_ns", static_cast<long>(s.busy_ns))
               .num("parent", static_cast<long>(s.parent))
               .num("request", s.request)
               .num("calls", s.calls)
               .render()
        << "\n";
  }
}

ScopedSpan::ScopedSpan(std::string name, long request)
    : tracer_(current_tracer()) {
  if (tracer_ != nullptr) id_ = tracer_->open(std::move(name), request);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

}  // namespace pb
