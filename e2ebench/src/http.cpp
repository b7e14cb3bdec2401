#include "http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace e2e {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Blocking loopback connect; the socket is non-blocking afterwards.
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

ResponseParser::Status ResponseParser::feed(std::string_view data) {
  buf_.append(data);
  if (body_at_ == 0) {
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) {
      return buf_.size() > 65536 ? Status::Error : Status::NeedMore;
    }
    if (buf_.compare(0, 9, "HTTP/1.1 ") != 0 || end < 12) return Status::Error;
    resp_ = HttpResponse{};
    resp_.status = std::atoi(buf_.c_str() + 9);
    length_ = 0;
    bool have_length = false;
    std::size_t pos = buf_.find("\r\n") + 2;
    while (pos < end) {
      const std::size_t eol = buf_.find("\r\n", pos);
      const std::string_view line(buf_.data() + pos, eol - pos);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view name = line.substr(0, colon);
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (iequals(name, "content-length")) {
          length_ = std::strtoull(std::string(value).c_str(), nullptr, 10);
          have_length = true;
        } else if (iequals(name, "etag")) {
          resp_.etag = std::string(value);
        }
      }
      pos = eol + 2;
    }
    const bool bodyless = resp_.status < 200 || resp_.status == 204 ||
                          resp_.status == 304;
    if (bodyless) length_ = 0;
    if (!bodyless && !have_length) return Status::Error;
    body_at_ = end + 4;
  }
  if (buf_.size() < body_at_ + length_) return Status::NeedMore;
  return Status::Complete;
}

HttpResponse ResponseParser::take() {
  resp_.body = buf_.substr(body_at_, length_);
  buf_.erase(0, body_at_ + length_);
  body_at_ = 0;
  return std::move(resp_);
}

std::optional<HttpResponse> http_get(std::uint16_t port,
                                     const std::string& target,
                                     double timeout_s) {
  const int fd = dial(port);
  if (fd < 0) return std::nullopt;
  const std::string wire = "GET " + target +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           "Connection: close\r\n\r\n";
  const auto t0 = Clock::now();
  std::size_t off = 0;
  ResponseParser parser;
  std::optional<HttpResponse> out;
  while (seconds_since(t0) < timeout_s) {
    pollfd p{fd, static_cast<short>(off < wire.size() ? POLLOUT : POLLIN), 0};
    if (::poll(&p, 1, 10) <= 0) continue;
    if (off < wire.size()) {
      const ssize_t n = ::send(fd, wire.data() + off, wire.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0 && errno != EAGAIN) break;
      if (n > 0) off += static_cast<std::size_t>(n);
      continue;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) break;
    if (n < 0) continue;
    const auto st = parser.feed({buf, static_cast<std::size_t>(n)});
    if (st == ResponseParser::Status::Error) break;
    if (st == ResponseParser::Status::Complete) {
      out = parser.take();
      break;
    }
  }
  ::close(fd);
  return out;
}

bool matches(const Template& t, const HttpResponse& r) {
  if (r.status != t.status) return false;
  if (t.live) return r.body.rfind(t.body, 0) == 0;
  return r.body == t.body && r.etag == t.etag;
}

struct LoadGen::Conn {
  int fd{-1};
  ResponseParser parser;
  const std::string* out{nullptr};
  std::size_t out_off{0};
  bool busy{false};
  std::uint32_t tmpl{0};
  Clock::time_point due{}, sent{};
  Clock::time_point idle_since{};  ///< when the last answer arrived

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadGen::LoadGen(std::uint16_t port, const std::vector<Template>& templates,
                 std::vector<std::uint32_t> sequence, unsigned connections)
    : port_(port), templates_(&templates), sequence_(std::move(sequence)) {
  for (unsigned i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = dial(port_);
    if (c->fd < 0) throw std::runtime_error("cannot connect to the target");
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

PhaseStats LoadGen::closed_loop(double seconds) { return run(seconds, 0.0); }

PhaseStats LoadGen::open_loop(double seconds, double rate) {
  return run(seconds, rate);
}

PhaseStats LoadGen::run(double seconds, double rate) {
  PhaseStats st;
  const bool open = rate > 0;
  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const auto drain_limit = deadline + std::chrono::seconds(5);
  std::uint64_t issued = 0;
  const auto due_of = [&](std::uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };
  const auto fail_conn = [&](Conn& c) {
    ++st.failed;
    c.busy = false;
    c.idle_since = Clock::now();
    c.parser = ResponseParser{};
    ::close(c.fd);
    c.fd = dial(port_);
  };
  const auto flush = [&](Conn& c) {
    while (c.out_off < c.out->size()) {
      const ssize_t n = ::send(c.fd, c.out->data() + c.out_off,
                               c.out->size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return true;
      if (n <= 0) return false;
      c.out_off += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    auto now = Clock::now();
    const bool issuing = now < deadline;
    if (issuing) {
      for (auto& cp : conns_) {
        Conn& c = *cp;
        if (c.busy || c.fd < 0) continue;
        const auto due = open ? due_of(issued) : now;
        if (due > now) break;
        c.tmpl = sequence_[cursor_++ % sequence_.size()];
        c.out = &(*templates_)[c.tmpl].wire;
        c.out_off = 0;
        c.busy = true;
        c.due = due;
        c.sent = Clock::now();
        if (open) {
          // The generator's own lateness: time past the later of the due
          // time and the moment a connection was free to carry it.
          st.lag_us.push_back(std::chrono::duration<double, std::micro>(
                                  c.sent - std::max(due, c.idle_since))
                                  .count());
        }
        ++issued;
        if (!flush(c)) fail_conn(c);
      }
    }
    bool any_busy = false;
    for (const auto& cp : conns_) any_busy |= cp->busy;
    if (!issuing && !any_busy) break;
    if (now > drain_limit) {
      for (auto& cp : conns_) {
        if (cp->busy) fail_conn(*cp);
      }
      break;
    }
    // Sleep until an answer arrives or the next request falls due — except
    // in an open-loop phase, which polls without sleeping: waking a parked
    // generator costs ~0.1 ms on a VM, which would be charged both to the
    // measured latency and to the generator's lateness.
    auto wake = issuing ? deadline : drain_limit;
    if (open && issuing) wake = now;
    if (!open && issuing) {
      bool idle = false;
      for (const auto& cp : conns_) idle |= !cp->busy;
      if (idle) wake = now;
    }
    const auto left = std::max(Clock::duration::zero(), wake - now);
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = *conns_[i];
      short ev = 0;
      if (c.busy) {
        ev = POLLIN;
        if (c.out_off < c.out->size()) ev |= POLLOUT;
      }
      pfds[i] = pollfd{c.busy ? c.fd : -1, ev, 0};
    }
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (!c.busy || pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLOUT) != 0 && !flush(c)) {
        fail_conn(c);
        continue;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) {
        fail_conn(c);
        continue;
      }
      const auto status = c.parser.feed({buf, static_cast<std::size_t>(n)});
      if (status == ResponseParser::Status::NeedMore) continue;
      if (status == ResponseParser::Status::Error) {
        fail_conn(c);
        continue;
      }
      const auto done = Clock::now();
      const HttpResponse resp = c.parser.take();
      const Template& t = (*templates_)[c.tmpl];
      c.busy = false;
      c.idle_since = done;
      if (!matches(t, resp)) {
        ++st.failed;
        if (st.failed <= 3) {
          std::fprintf(stderr, "e2ebench: mismatch on %s: status %d\n",
                       t.name.c_str(), resp.status);
        }
        continue;
      }
      ++st.completed;
      const double lat =
          std::chrono::duration<double, std::micro>(done - (open ? c.due : c.sent))
              .count();
      (t.kind == Template::Kind::Plan ? st.plan_us : st.get_us).push_back(lat);
      st.service_us.push_back(
          std::chrono::duration<double, std::micro>(done - c.sent).count());
    }
  }
  st.elapsed_s = seconds_since(t0);
  st.steal = steal_share(ticks0, cpu_ticks());
  return st;
}

}  // namespace e2e
