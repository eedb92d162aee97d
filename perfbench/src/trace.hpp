// In-memory span recorder for the traced run. Spans are taken only around
// the benchmark's own calls into each layer (feed bursts, drain, add_rule,
// set-up steps and the isolated per-layer replays); nothing inside the
// library is instrumented. Each span carries the number of operations it
// covers, so a layer's ns per operation is duration / ops. Spans stay in
// memory and are written once, as Chrome trace-event JSON, at exit.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

struct Span {
  std::string name;
  nfp::u64 start_ns = 0;
  nfp::u64 end_ns = 0;
  nfp::u64 ops = 1;   // operations the span covers (frames, calls)
  int parent = -1;    // index of the enclosing span, -1 for a root
  int thread = 0;     // 0 = bench thread, 1 = control thread
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  // Opens a span and returns its index (-1 when disabled); close() ends it.
  int open(const std::string& name, int parent = -1, int thread = 0);
  void close(int span, nfp::u64 ops = 1);
  // Records an already-measured interval.
  void record(const std::string& name, nfp::u64 start_ns, nfp::u64 end_ns,
              nfp::u64 ops = 1, int parent = -1, int thread = 0);
  // Counters recorded beside the spans (the classifier's tuple count).
  void count(const std::string& name, double value);

  // Aggregates over every span called `name`: total ns / total ops, and
  // the per-span durations.
  double ns_per_op(const std::string& name) const;
  std::vector<double> durations_ns(const std::string& name) const;
  double counter(const std::string& name) const;

  // Writes {"traceEvents":[...]} with one complete event per span and one
  // counter event per counter. Returns false when the file cannot be
  // written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// RAII span over one call into a layer.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, nfp::u64 ops = 1,
        int parent = -1)
      : t_(t), id_(t.open(name, parent)), ops_(ops) {}
  ~Scope() { t_.close(id_, ops_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
  nfp::u64 ops_;
};

nfp::u64 now_ns() noexcept;

}  // namespace perfbench
