// Embedded HTTP stats server: the live window into a running dataplane.
//
// A dependency-free HTTP/1.0 server on POSIX sockets — one background
// accept thread, bounded request size, close-after-response — that turns
// the telemetry layer's exporters into live endpoints:
//
//   GET /metrics          Prometheus text exposition (to_prometheus)
//   GET /metrics.json     the same registry as JSON (to_json)
//   GET /timeseries.json  TimeseriesCollector histories + derived rates
//   GET /observatory.json the three views below from one report, so they
//                         describe the same instant (ObservatoryReport)
//   GET /scalability.json per-shard lost-pps attribution (ScalabilityReport)
//   GET /latency.json     stage-resolved tail-latency report (LatencyReport)
//   GET /flows.json       heavy hitters, churn, drop taxonomy (FlowReport)
//   GET /profile.json     critical-path attribution (CriticalPathReport)
//   GET /recorder.json    flight-recorder window (most recent events)
//   GET /trace.json       Chrome trace-event JSON (load in ui.perfetto.dev)
//   GET /healthz          {"healthy":...,"firing":[...],"anomalies":[...]}
//                         200 when no watchdog rule fires, 503 otherwise
//
// Handlers are plain std::function<Response()> registered per path, so the
// CLI, benches and tests wire exactly the sources they have.
// register_standard_endpoints() installs the table above from an
// EndpointSources struct of optional pointers — absent sources get a 404.
//
// Threading: handlers run on the server thread while the dataplane runs
// elsewhere. EndpointSources carries an optional mutex; the standard
// handlers hold it while reading structurally-mutable state (registry
// iteration, tracer rings, recorder). Metric values themselves are
// tear-free relaxed atomics (registry.hpp), so the mutex only needs to be
// shared with structural writers — in the CLI that is the wave loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.hpp"
#include "common/types.hpp"

namespace nfp::telemetry {

class MetricsRegistry;
class Tracer;
class FlightRecorder;
class Watchdog;
class TimeseriesCollector;
class Observatory;

class StatsServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  struct Options {
    std::uint16_t port = 0;      // 0 = ephemeral (read back via port())
    std::string bind = "127.0.0.1";
    std::size_t max_request_bytes = 8192;
    int backlog = 16;
  };

  StatsServer() = default;
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // Registers/replaces the handler for an exact path. Not thread-safe
  // against a running server; register before start().
  void handle(std::string path, Handler handler);

  // Binds, listens and spawns the accept thread. Error (not crash) when
  // the port is taken or sockets are unavailable.
  Status start(const Options& options);
  void stop();

  bool running() const noexcept { return listen_fd_ >= 0; }
  // Bound port (useful with port 0); 0 when not running.
  std::uint16_t port() const noexcept { return port_; }
  u64 requests_served() const noexcept {
    return requests_.load(std::memory_order_acquire);
  }

 private:
  void serve_loop();
  void handle_connection(int fd);

  std::map<std::string, Handler> handlers_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> requests_{0};
};

// Everything the standard endpoint table can serve; null members 404.
struct EndpointSources {
  const MetricsRegistry* registry = nullptr;
  const Tracer* tracer = nullptr;
  const FlightRecorder* recorder = nullptr;
  const Watchdog* watchdog = nullptr;
  TimeseriesCollector* timeseries = nullptr;
  // Serves /observatory.json, /scalability.json, /latency.json and
  // /flows.json. The observatory is internally synchronized; its shard
  // callbacks read relaxed atomics and lock per-shard accountants only
  // while copying, so no shared mutex is needed.
  const Observatory* observatory = nullptr;
  // Held by handlers that iterate structurally-mutable state; share it
  // with whatever thread creates new series / records spans.
  std::mutex* mu = nullptr;
};

// Installs the /metrics, /metrics.json, /timeseries.json, /profile.json,
// /recorder.json, /trace.json and /healthz handlers on `server`.
void register_standard_endpoints(StatsServer& server, EndpointSources sources);

// Minimal loopback HTTP GET used by `nfp_cli top` and the tests: returns
// "<status> <content-type>\n<body>" split into the struct below, or an
// error Status on connect/parse failure. Takes host "127.0.0.1" only.
struct HttpResult {
  int status = 0;
  std::string content_type;
  std::string body;
};
Result<HttpResult> http_get(std::uint16_t port, const std::string& path);

}  // namespace nfp::telemetry
