#pragma once
// Upstream-side plumbing for the mcmm gateway: the one non-blocking dialler
// that proxy legs and health probes share on the gateway's event loop, and
// an incremental HTTP/1.1 *response* parser (the mirror of serve's hardened
// request parser, socket-free for the same testability reasons).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcmm::gateway {

/// Starts a non-blocking connect for the readiness loop: returns a
/// SOCK_NONBLOCK|SOCK_CLOEXEC fd with TCP_NODELAY, or -1 on immediate
/// failure. `*in_progress` is true when the handshake is still pending —
/// the caller must wait for EPOLLOUT and check for a connect error before
/// relying on the socket.
[[nodiscard]] int dial_nonblocking(const std::string& host,
                                   std::uint16_t port,
                                   bool* in_progress) noexcept;

/// Incremental HTTP/1.1 response parser. Framing: Content-Length (the only
/// body framing mcmm serve emits); a missing Content-Length means an empty
/// body; 1xx/204/304 and HEAD exchanges never carry one (RFC 9112 §6.3).
/// Hard caps mirror serve's request limits so a misbehaving upstream
/// cannot balloon gateway memory.
class ResponseParser {
 public:
  enum class Status : std::uint8_t { NeedMore, Complete, Error };

  /// `head` marks the exchange as a HEAD request (bodiless by definition).
  explicit ResponseParser(bool head = false) : head_(head) {}

  Status feed(std::string_view data);

  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] int status_code() const noexcept { return status_code_; }
  [[nodiscard]] bool saw_bytes() const noexcept { return saw_bytes_; }
  /// First header with that lowercase name; nullptr when absent.
  [[nodiscard]] const std::string* header(
      std::string_view name) const noexcept;
  /// Connection persistence of the upstream side after this response.
  [[nodiscard]] bool keep_alive() const noexcept;
  /// Moves the body out. Only valid when status() == Complete.
  [[nodiscard]] std::string take_body() { return std::move(body_); }

 private:
  enum class State : std::uint8_t { StatusLine, Headers, Body, Done };

  Status fail() noexcept;
  Status parse();

  static constexpr std::size_t kMaxHeaderBytes = 32 * 1024;
  static constexpr std::size_t kMaxBody = 8u << 20;

  bool head_;
  bool saw_bytes_{false};
  State state_{State::StatusLine};
  Status status_{Status::NeedMore};
  int status_code_{0};
  int version_minor_{1};
  std::vector<std::pair<std::string, std::string>> headers_;
  std::string body_;
  std::string buffer_;
  std::size_t consumed_{0};
  std::size_t content_length_{0};
};

}  // namespace mcmm::gateway
