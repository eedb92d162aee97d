#include "telemetry/stats_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/json.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/health_sampler.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/tracer.hpp"

namespace nfp::telemetry {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// Writes the full buffer, tolerating short writes and EINTR.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void send_response(int fd, const StatsServer::Response& response) {
  std::ostringstream head;
  head << "HTTP/1.0 " << response.status << " "
       << status_text(response.status) << "\r\n"
       << "Content-Type: " << response.content_type << "\r\n"
       << "Content-Length: " << response.body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  const std::string header = head.str();
  if (write_all(fd, header.data(), header.size())) {
    write_all(fd, response.body.data(), response.body.size());
  }
}

}  // namespace

StatsServer::~StatsServer() { stop(); }

void StatsServer::handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status StatsServer::start(const Options& options) {
  if (listen_fd_ >= 0) return Status::error("stats server already running");
  options_ = options;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::error(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error("bad bind address: " + options.bind);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::error("bind 127.0.0.1:" + std::to_string(options.port) +
                         ": " + err);
  }
  if (::listen(fd, options.backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::error("listen: " + err);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options.port;
  }

  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return Status::ok();
}

void StatsServer::stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  // The accept loop polls with a timeout, so it notices `stop_` promptly;
  // shutdown() additionally wakes a blocked accept on platforms where
  // poll returned just before.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void StatsServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void StatsServer::handle_connection(int fd) {
  // Read until the end of the request head (connections are one-shot, so
  // nothing after "\r\n\r\n" matters), with a hard size bound.
  std::string request;
  char buf[1024];
  bool too_large = false;
  while (request.find("\r\n\r\n") == std::string::npos) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/2000) <= 0) break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
    if (request.size() > options_.max_request_bytes) {
      too_large = true;
      break;
    }
  }
  requests_.fetch_add(1, std::memory_order_release);

  if (too_large) {
    send_response(fd, Response{413, "text/plain; charset=utf-8",
                               "request too large\n"});
    return;
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    send_response(fd, Response{400, "text/plain; charset=utf-8",
                               "malformed request line\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    send_response(fd, Response{405, "text/plain; charset=utf-8",
                               "only GET is supported\n"});
    return;
  }

  const auto it = handlers_.find(path);
  if (it == handlers_.end()) {
    std::string index = "not found. endpoints:\n";
    for (const auto& [p, h] : handlers_) index += "  " + p + "\n";
    send_response(fd,
                  Response{404, "text/plain; charset=utf-8", std::move(index)});
    return;
  }
  send_response(fd, it->second());
}

namespace {

// Lock helper: EndpointSources.mu is optional.
std::unique_lock<std::mutex> maybe_lock(std::mutex* mu) {
  return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                       : std::unique_lock<std::mutex>();
}

std::string recorder_json(const FlightRecorder& recorder) {
  std::ostringstream out;
  out << "{\"recorded\":" << recorder.recorded() << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : recorder.recent()) {
    if (!first) out << ",";
    first = false;
    out << "{\"seq\":" << ev.seq << ",\"at_ns\":" << ev.at_ns
        << ",\"severity\":\"" << severity_name(ev.severity)
        << "\",\"component\":\"" << json::escape(ev.component)
        << "\",\"message\":\"" << json::escape(ev.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string healthz_json(const Watchdog* watchdog,
                         const FlightRecorder* recorder) {
  const bool healthy = watchdog == nullptr || watchdog->healthy();
  std::ostringstream out;
  out << "{\"healthy\":" << (healthy ? "true" : "false") << ",\"firing\":[";
  if (watchdog != nullptr) {
    bool first = true;
    for (const std::string& f : watchdog->firing()) {
      if (!first) out << ",";
      first = false;
      out << "\"" << json::escape(f) << "\"";
    }
    out << "],\"anomalies_total\":" << watchdog->anomalies();
  } else {
    out << "],\"anomalies_total\":0";
  }
  // Most recent warn/critical events, for a one-request triage view.
  out << ",\"recent\":[";
  if (recorder != nullptr) {
    const std::vector<FlightEvent> events = recorder->recent();
    bool first = true;
    std::size_t shown = 0;
    for (std::size_t i = events.size(); i > 0 && shown < 8; --i) {
      const FlightEvent& ev = events[i - 1];
      if (ev.severity == Severity::kInfo) continue;
      if (!first) out << ",";
      first = false;
      ++shown;
      out << "{\"severity\":\"" << severity_name(ev.severity)
          << "\",\"component\":\"" << json::escape(ev.component)
          << "\",\"message\":\"" << json::escape(ev.message) << "\"}";
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace

void register_standard_endpoints(StatsServer& server,
                                 EndpointSources sources) {
  if (sources.registry != nullptr) {
    const MetricsRegistry* registry = sources.registry;
    std::mutex* mu = sources.mu;
    server.handle("/metrics", [registry, mu] {
      auto lock = maybe_lock(mu);
      return StatsServer::Response{
          200, "text/plain; version=0.0.4; charset=utf-8",
          to_prometheus(*registry)};
    });
    server.handle("/metrics.json", [registry, mu] {
      auto lock = maybe_lock(mu);
      return StatsServer::Response{200, "application/json",
                                   to_json(*registry)};
    });
  }
  if (sources.timeseries != nullptr) {
    TimeseriesCollector* timeseries = sources.timeseries;
    // TimeseriesCollector::to_json takes the shared mutex itself.
    server.handle("/timeseries.json", [timeseries] {
      return StatsServer::Response{200, "application/json",
                                   timeseries->to_json()};
    });
  }
  if (sources.observatory != nullptr) {
    const Observatory* observatory = sources.observatory;
    // One report per request; each path renders all or one of its views.
    const auto serve = [&server, observatory](
                           std::string path,
                           std::string (*render)(const ObservatoryReport&)) {
      server.handle(std::move(path), [observatory, render] {
        return StatsServer::Response{200, "application/json",
                                     render(observatory->report())};
      });
    };
    serve("/observatory.json",
          [](const ObservatoryReport& r) { return r.to_json(); });
    serve("/scalability.json",
          [](const ObservatoryReport& r) { return r.scalability.to_json(); });
    serve("/latency.json",
          [](const ObservatoryReport& r) { return r.latency.to_json(); });
    serve("/flows.json",
          [](const ObservatoryReport& r) { return r.flows.to_json(); });
  }
  if (sources.tracer != nullptr) {
    const Tracer* tracer = sources.tracer;
    std::mutex* mu = sources.mu;
    server.handle("/profile.json", [tracer, mu] {
      auto lock = maybe_lock(mu);
      return StatsServer::Response{
          200, "application/json",
          CriticalPathProfiler(*tracer).report().to_json()};
    });
    server.handle("/trace.json", [tracer, mu] {
      auto lock = maybe_lock(mu);
      return StatsServer::Response{200, "application/json",
                                   to_chrome_trace(*tracer)};
    });
  }
  if (sources.recorder != nullptr) {
    const FlightRecorder* recorder = sources.recorder;
    // FlightRecorder is internally synchronized; no shared mutex needed.
    server.handle("/recorder.json", [recorder] {
      return StatsServer::Response{200, "application/json",
                                   recorder_json(*recorder)};
    });
  }
  {
    const Watchdog* watchdog = sources.watchdog;
    const FlightRecorder* recorder = sources.recorder;
    server.handle("/healthz", [watchdog, recorder] {
      const bool healthy = watchdog == nullptr || watchdog->healthy();
      return StatsServer::Response{healthy ? 200 : 503, "application/json",
                                   healthz_json(watchdog, recorder)};
    });
  }
}

Result<HttpResult> http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Result<HttpResult>::error(std::string("socket: ") +
                                     std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Result<HttpResult>::error("connect 127.0.0.1:" +
                                     std::to_string(port) + ": " + err);
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!write_all(fd, request.data(), request.size())) {
    ::close(fd);
    return Result<HttpResult>::error("write failed");
  }

  std::string raw;
  char buf[4096];
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/5000) <= 0) break;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Result<HttpResult>::error("malformed response (no header end)");
  }
  HttpResult result;
  result.body = raw.substr(head_end + 4);

  const std::string head = raw.substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    return Result<HttpResult>::error("malformed status line: " + status_line);
  }
  result.status = std::atoi(status_line.c_str() + sp + 1);

  // Case-insensitive Content-Type header scan.
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string header = head.substr(pos, next - pos);
    const std::size_t colon = header.find(':');
    if (colon != std::string::npos) {
      std::string name = header.substr(0, colon);
      for (char& c : name) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (name == "content-type") {
        std::size_t vstart = colon + 1;
        while (vstart < header.size() && header[vstart] == ' ') ++vstart;
        result.content_type = header.substr(vstart);
      }
    }
    pos = next + 2;
  }
  return result;
}

}  // namespace nfp::telemetry
