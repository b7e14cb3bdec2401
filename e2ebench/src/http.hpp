#pragma once
// The benchmark's HTTP client side: an incremental response parser, a
// one-shot GET for control-plane requests (readiness polls, /metrics
// scrapes), and the load generator — one thread, at most four keep-alive
// connections, driving a closed-loop or a fixed-rate open-loop phase over
// a pre-generated request sequence and checking every answer.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace e2e {

struct HttpResponse {
  int status{0};
  std::string etag;
  std::string body;
};

/// Incremental HTTP/1.1 response parser (Content-Length framing; 1xx, 204
/// and 304 carry no body).
class ResponseParser {
 public:
  enum class Status { NeedMore, Complete, Error };
  Status feed(std::string_view data);
  /// Moves out the completed response and keeps any bytes after it.
  HttpResponse take();

 private:
  std::string buf_;
  std::size_t body_at_{0};  ///< 0 until the header block is parsed
  std::size_t length_{0};
  HttpResponse resp_;
};

/// GET `target` from 127.0.0.1:`port` on a fresh connection.
[[nodiscard]] std::optional<HttpResponse> http_get(std::uint16_t port,
                                                   const std::string& target,
                                                   double timeout_s = 2.0);

/// One distinct request of a workload mix with its expected answer.
struct Template {
  enum class Kind { Get, Plan };
  Kind kind{Kind::Get};
  std::string wire;  ///< full request bytes
  std::string name;  ///< for failure messages
  int status{200};
  std::string body;
  std::string etag;
  bool live{false};  ///< /healthz: body is live state, check its prefix only
};

[[nodiscard]] bool matches(const Template& t, const HttpResponse& r);

/// Result of one load phase.
struct PhaseStats {
  double elapsed_s{0};
  double steal{0};  ///< share of host CPU time stolen during the phase
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::vector<double> get_us;   ///< per-request latency, Get templates
  std::vector<double> plan_us;  ///< per-request latency, Plan templates
  std::vector<double> service_us;  ///< send -> response, every request
  std::vector<double> lag_us;   ///< open loop: generator lateness
};

/// Single-threaded keep-alive load generator over `connections` sockets.
/// Requests follow `sequence` (indexes into `templates`) cyclically, so the
/// mix is fixed by the workload seed and nothing else.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, const std::vector<Template>& templates,
          std::vector<std::uint32_t> sequence, unsigned connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Each connection sends its next request as soon as the previous
  /// answer arrived; latency is send -> answer.
  PhaseStats closed_loop(double seconds);

  /// Request i is due at start + i / rate and goes out on the first idle
  /// connection at or after that time; latency is due -> answer, so a
  /// stall is charged to every request it delays.
  PhaseStats open_loop(double seconds, double rate);

 private:
  struct Conn;
  PhaseStats run(double seconds, double rate);

  std::uint16_t port_;
  const std::vector<Template>* templates_;
  std::vector<std::uint32_t> sequence_;
  std::size_t cursor_{0};
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace e2e
