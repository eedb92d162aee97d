#include "trace.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

nfp::u64 now_ns() noexcept {
  return static_cast<nfp::u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int Tracer::open(const std::string& name, int parent, int thread) {
  if (!enabled_) return -1;
  const nfp::u64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, 0, 1, parent, thread});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span, nfp::u64 ops) {
  if (span < 0) return;
  const nfp::u64 t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = t;
  spans_[static_cast<std::size_t>(span)].ops = ops;
}

void Tracer::record(const std::string& name, nfp::u64 start_ns,
                    nfp::u64 end_ns, nfp::u64 ops, int parent, int thread) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, ops, parent, thread});
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += value;
}

double Tracer::ns_per_op(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double ns = 0;
  double ops = 0;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_ns < s.start_ns) continue;
    ns += static_cast<double>(s.end_ns - s.start_ns);
    ops += static_cast<double>(s.ops);
  }
  return ops > 0 ? ns / ops : 0;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const nfp::u64 base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"ops\":" << s.ops << "}}";
    first = false;
  }
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"value\":"
        << value << "}}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
