// The benchmark's own self-tests: the percentile math, the /metrics
// scrape parser, and the load generator's due-time latency accounting
// (against a loopback stub server with a fixed service time).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <thread>

#include "prom.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "e2ebench selftest FAILED: %s\n", what);
  }
}

bool near(double x, double want, double tol) { return std::fabs(x - want) <= tol; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(quantile(v, 0.5) == 5, "p50 of 1..10 is 5 (nearest rank)");
  expect(quantile(v, 0.9) == 9, "p90 of 1..10 is 9");
  expect(quantile(v, 0.99) == 10, "p99 of 1..10 is 10");
  expect(quantile(v, 1.0) == 10, "p100 is the maximum");
  expect(quantile({}, 0.5) == 0, "empty sample reads 0");
  expect(quantile({7}, 0.99) == 7, "single sample");
  expect(median({3, 1, 2, 4}) == 2, "median of an even count is the lower middle");
  std::vector<double> big(1000);
  for (int i = 0; i < 1000; ++i) big[i] = 999 - i;
  expect(quantile(big, 0.99) == 989, "p99 of 0..999 is 989");
  expect(mean({1, 2, 3, 6}) == 3, "mean");
}

void test_scrape() {
  const Scrape a(
      "# HELP x y\n# TYPE mcmm_http_requests_total counter\n"
      "mcmm_http_requests_total{code=\"200\"} 10\n"
      "mcmm_http_requests_total{code=\"304\"} 5\n"
      "mcmm_http_requests_total_extra 99\n"
      "mcmm_eventloop_wakeups_total 40\n"
      "mcmm_http_request_duration_seconds_bucket{le=\"+Inf\"} 15\n"
      "mcmm_http_request_duration_seconds_sum 0.000021\n"
      "mcmm_gateway_upstream_requests_total{upstream=\"127.0.0.1:81\","
      "result=\"ok\"} 7\n"
      "mcmm_gateway_upstream_requests_total{upstream=\"127.0.0.1:82\","
      "result=\"ok\"} 3\n"
      "garbage line\n"
      "broken_value 12abc\n");
  const Scrape b(
      "mcmm_http_requests_total{code=\"200\"} 30\n"
      "mcmm_http_requests_total{code=\"304\"} 6\n"
      "mcmm_eventloop_wakeups_total 100\n"
      "mcmm_http_request_duration_seconds_sum 0.000121\n"
      "mcmm_gateway_upstream_requests_total{upstream=\"127.0.0.1:81\","
      "result=\"ok\"} 17\n");
  expect(a.sum("mcmm_http_requests_total") == 15,
         "family sum skips a longer metric name with the same prefix");
  expect(delta(a, b, "mcmm_http_requests_total") == 21, "counter delta");
  expect(delta(a, b, "mcmm_eventloop_wakeups_total") == 60, "unlabelled delta");
  expect(near(delta(a, b, "mcmm_http_request_duration_seconds_sum"), 1e-4, 1e-12),
         "fractional values");
  expect(delta(a, b, "mcmm_gateway_upstream_requests_total",
               "upstream=\"127.0.0.1:81\",result=\"ok\"") == 10,
         "label filter");
  expect(a.sum("broken_value") == 0 && a.sum("garbage") == 0,
         "malformed lines are skipped");
  expect(a.sum("mcmm_http_request_duration_seconds_bucket", "le=\"+Inf\"") == 15,
         "+Inf bucket label");
}

/// Loopback stub: one connection, each request answered after `delay`.
class Stub {
 public:
  explicit Stub(std::chrono::milliseconds delay) : delay_(delay) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~Stub() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }
  Stub(const Stub&) = delete;
  Stub& operator=(const Stub&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string in;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      for (std::size_t end; (end = in.find("\r\n\r\n")) != std::string::npos;) {
        in.erase(0, end + 4);
        std::this_thread::sleep_for(delay_);
        static constexpr char kResp[] =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"e\"\r\n\r\nok";
        ::send(fd, kResp, sizeof kResp - 1, MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  std::chrono::milliseconds delay_;
  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::thread thread_;
};

void test_due_time_accounting() {
  Template t;
  t.wire = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  t.name = "stub";
  t.body = "ok";
  t.etag = "\"e\"";
  const std::vector<Template> ts{t};
  // The checks are accounting identities, not wall-clock expectations, so
  // they hold however late the host schedules the stub or the generator.
  {
    // Overloaded: due every 10 ms, each answer takes >= 20 ms, one
    // connection. Request i goes out when the connection frees, so
    //   latency_i = done_i - due_i = sum_{j<=i}(lag_j + service_j) - 10 ms*i
    // (lag_j: connection free -> sent, the generator's own lateness).
    Stub stub(std::chrono::milliseconds(20));
    LoadGen gen(stub.port(), ts, {0}, 1);
    const PhaseStats s = gen.open_loop(0.2, 100.0);
    expect(s.failed == 0 && s.completed >= 2 && s.completed <= 20,
           "overloaded stub phase completes, never above the offered count");
    bool identity = s.get_us.size() == s.completed &&
                    s.lag_us.size() == s.completed &&
                    s.service_us.size() == s.completed;
    double done = 0;
    for (std::size_t i = 0; identity && i < s.get_us.size(); ++i) {
      done += s.lag_us[i] + s.service_us[i];
      identity = s.service_us[i] >= 20000 &&
                 near(s.get_us[i], done - 10000.0 * static_cast<double>(i), 50);
    }
    expect(identity, "open-loop latency runs from the due time, not the send");
  }
  {
    // Closed loop: latency is send -> answer, and there is no lateness.
    Stub stub(std::chrono::milliseconds(5));
    LoadGen gen(stub.port(), ts, {0}, 1);
    const PhaseStats s = gen.closed_loop(0.05);
    bool same = s.completed >= 1 && s.get_us.size() == s.service_us.size();
    for (std::size_t i = 0; same && i < s.get_us.size(); ++i) {
      same = s.get_us[i] == s.service_us[i] && s.get_us[i] >= 5000;
    }
    expect(same && s.lag_us.empty(), "closed loop: latency is send -> answer");
  }
}

}  // namespace

int run_selftests() {
  g_failures = 0;
  test_percentiles();
  test_scrape();
  test_due_time_accounting();
  return g_failures;
}

}  // namespace e2e
