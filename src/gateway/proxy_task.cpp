#include "gateway/proxy_task.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "gateway/gateway.hpp"

namespace mcmm::gateway {

using Phase = ProxyLeg::Phase;

void ProxyLeg::on_io(std::uint32_t events) {
  if (task != nullptr) task->leg_io(*this, events);
}

ProxyTask::ProxyTask(Gateway& gw, serve::ResponseToken token,
                     std::string wire, bool head, bool idempotent,
                     bool hedgeable)
    : gw_(gw),
      token_(token),
      wire_(std::move(wire)),
      head_(head),
      idempotent_(idempotent),
      hedgeable_(hedgeable) {
  for (std::size_t i = 0; i < 2; ++i) {
    legs_[i].task = this;
    legs_[i].slot = i;
    legs_[i].connect_timer.on_fire = [this, i] {
      ProxyLeg& leg = legs_[i];
      if (!finished_ && leg.phase == Phase::Connecting) leg_failed(leg);
    };
  }
  deadline_timer_.on_fire = [this] { on_deadline(); };
  hedge_timer_.on_fire = [this] { on_hedge(); };
}

void ProxyTask::start() { begin_attempt(); }

void ProxyTask::begin_attempt() {
  serve::EventLoop& loop = gw_.proxy_loop();
  const std::optional<std::size_t> picked =
      gw_.pick_replica(excluded_, serve::EventLoop::steady_ms());
  if (!picked) {
    settle();
    return;
  }
  attempted_ = true;
  loop.wheel().arm(deadline_timer_, loop.now_ms(),
                   gw_.config_.upstream_timeout_ms);
  if (hedgeable_ && attempt_ == 0) {
    loop.wheel().arm(hedge_timer_, loop.now_ms(),
                     gw_.config_.hedge_after_ms);
  }
  open_leg(legs_[0], *picked);
}

void ProxyTask::open_leg(ProxyLeg& leg, std::size_t replica) {
  leg.idx = replica;
  leg.sent = 0;
  leg.from_pool = false;
  leg.replayed = false;
  leg.no_replay = false;
  leg.counted = false;
  leg.parser = ResponseParser(head_);
  leg.start_ms = serve::EventLoop::steady_ms();
  lease_or_dial(leg);
  if (!leg.active()) leg_unopenable(leg);
}

void ProxyTask::leg_unopenable(ProxyLeg& leg) {
  gw_.registry_.at(leg.idx).breaker.record_failure(
      serve::EventLoop::steady_ms());
  gw_.metrics_.record_upstream(leg.idx, false, 0);
  exclude(leg.idx);
  if (!teardown_ && !finished_ && !legs_[0].active() && !legs_[1].active()) {
    next_attempt();
  }
}

void ProxyTask::resume_leg(ProxyLeg& leg) {
  leg.phase = Phase::Idle;
  if (finished_) return;  // finish() unqueues its waiters; defensive only
  lease_or_dial(leg);
  if (!leg.active()) leg_unopenable(leg);
}

void ProxyTask::lease_or_dial(ProxyLeg& leg) {
  serve::EventLoop& loop = gw_.proxy_loop();
  Gateway::UpstreamConns& u = gw_.upstream_[leg.idx];
  while (!u.idle.empty()) {
    const int fd = u.idle.back();
    u.idle.pop_back();
    // An idle keep-alive socket must be quiet: readable (the replica's
    // idle-timeout FIN, or bytes out of turn) means stale.
    char probe = 0;
    const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      leg.fd = fd;
      leg.from_pool = true;
      leg.phase = Phase::Sending;
      loop.add(fd, &leg, EPOLLOUT);
      leg_send(leg);
      return;
    }
    ::close(fd);
    --u.open;
  }
  if (u.open >=
      static_cast<std::size_t>(gw_.config_.max_upstream_connections)) {
    leg.phase = Phase::Waiting;
    u.waiters.push_back(&leg);
    return;
  }
  const Replica& r = gw_.registry_.at(leg.idx);
  bool in_progress = false;
  const int fd =
      dial_nonblocking(r.endpoint.host, r.endpoint.port, &in_progress);
  if (fd < 0) return;  // leg stays Idle; caller records the failure
  ++u.open;
  leg.fd = fd;
  if (in_progress) {
    leg.phase = Phase::Connecting;
    loop.add(fd, &leg, EPOLLOUT);
    loop.wheel().arm(leg.connect_timer, loop.now_ms(),
                     gw_.config_.connect_timeout_ms);
  } else {
    leg.phase = Phase::Sending;
    loop.add(fd, &leg, EPOLLOUT);
    leg_send(leg);
  }
}

void ProxyTask::leg_io(ProxyLeg& leg, std::uint32_t events) {
  if (finished_) return;
  switch (leg.phase) {
    case Phase::Connecting: {
      gw_.proxy_loop().wheel().cancel(leg.connect_timer);
      int err = 0;
      socklen_t len = sizeof err;
      if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
          ::getsockopt(leg.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        leg_failed(leg);
        return;
      }
      leg.phase = Phase::Sending;
      leg_send(leg);
      return;
    }
    case Phase::Sending:
      if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
        leg_failed(leg);
        return;
      }
      leg_send(leg);
      return;
    case Phase::Receiving:
      // recv() surfaces ERR/HUP/RDHUP as 0/-1 after draining any data.
      leg_recv(leg);
      return;
    case Phase::Idle:
    case Phase::Waiting:
      return;
  }
}

void ProxyTask::leg_send(ProxyLeg& leg) {
  while (leg.sent < wire_.size()) {
    const ssize_t n = ::send(leg.fd, wire_.data() + leg.sent,
                             wire_.size() - leg.sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Level-triggered EPOLLOUT is still armed; the loop resumes us.
        gw_.proxy_loop().counters().epollout_rearms_total.fetch_add(
            1, std::memory_order_relaxed);
        return;
      }
      leg_failed(leg);
      return;
    }
    leg.sent += static_cast<std::size_t>(n);
  }
  leg.phase = Phase::Receiving;
  gw_.registry_.at(leg.idx).in_flight.fetch_add(1,
                                                std::memory_order_relaxed);
  leg.counted = true;
  gw_.proxy_loop().mod(leg.fd, &leg, EPOLLIN | EPOLLRDHUP);
}

void ProxyTask::leg_recv(ProxyLeg& leg) {
  char buf[16384];
  for (;;) {
    const ssize_t r = ::recv(leg.fd, buf, sizeof buf, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      leg_failed(leg);
      return;
    }
    if (r == 0) {
      leg_failed(leg);
      return;
    }
    const ResponseParser::Status st =
        leg.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
    if (st == ResponseParser::Status::Error) {
      leg.no_replay = true;  // a garbled response is a real failure
      leg_failed(leg);
      return;
    }
    if (st == ResponseParser::Status::Complete) {
      leg_won(leg);
      return;
    }
  }
}

void ProxyTask::unqueue(ProxyLeg& leg) {
  auto& w = gw_.upstream_[leg.idx].waiters;
  w.erase(std::remove(w.begin(), w.end(), &leg), w.end());
}

void ProxyTask::exclude(std::size_t replica) {
  if (std::find(excluded_.begin(), excluded_.end(), replica) ==
      excluded_.end()) {
    excluded_.push_back(replica);
  }
}

void ProxyTask::drop_socket(ProxyLeg& leg) {
  gw_.proxy_loop().wheel().cancel(leg.connect_timer);
  if (leg.phase == Phase::Waiting) unqueue(leg);
  if (leg.fd >= 0) {
    gw_.proxy_loop().del(leg.fd);
    ::close(leg.fd);
    leg.fd = -1;
    --gw_.upstream_[leg.idx].open;
    gw_.resume_waiter(leg.idx);
  }
}

void ProxyTask::leg_failed(ProxyLeg& leg) {
  const std::int64_t now = serve::EventLoop::steady_ms();
  const bool replay = leg.from_pool && !leg.parser.saw_bytes() &&
                      !leg.replayed && !leg.no_replay;
  drop_socket(leg);
  if (leg.counted) {
    gw_.registry_.at(leg.idx).in_flight.fetch_sub(1,
                                                  std::memory_order_relaxed);
    leg.counted = false;
  }
  if (replay) {
    // A pooled connection that died before yielding a byte most likely hit
    // the replica's idle-timeout race, not a sick replica: replay once on
    // a fresh connection, with no breaker penalty.
    leg.replayed = true;
    leg.from_pool = false;
    leg.sent = 0;
    leg.parser = ResponseParser(head_);
    leg.start_ms = now;
    leg.phase = Phase::Idle;
    lease_or_dial(leg);
    if (leg.active()) return;
  }
  Replica& r = gw_.registry_.at(leg.idx);
  r.breaker.record_failure(now);
  gw_.metrics_.record_upstream(
      leg.idx, false,
      static_cast<std::uint64_t>((now - leg.start_ms) * 1000));
  exclude(leg.idx);
  leg.phase = Phase::Idle;
  if (!teardown_ && !legs_[0].active() && !legs_[1].active()) {
    next_attempt();
  }
}

void ProxyTask::abandon_leg(ProxyLeg& leg) {
  if (!leg.active()) return;
  if (leg.phase == Phase::Waiting) {
    unqueue(leg);
  } else {
    drop_socket(leg);  // mid-exchange: the connection cannot be cached
  }
  if (leg.counted) {
    gw_.registry_.at(leg.idx).in_flight.fetch_sub(1,
                                                  std::memory_order_relaxed);
    leg.counted = false;
  }
  gw_.registry_.at(leg.idx).breaker.record_abandoned();
  leg.phase = Phase::Idle;
}

void ProxyTask::leg_won(ProxyLeg& leg) {
  const std::int64_t now = serve::EventLoop::steady_ms();
  serve::EventLoop& loop = gw_.proxy_loop();
  Replica& rep = gw_.registry_.at(leg.idx);
  if (leg.counted) {
    rep.in_flight.fetch_sub(1, std::memory_order_relaxed);
    leg.counted = false;
  }
  rep.breaker.record_success(now);
  gw_.metrics_.record_upstream(
      leg.idx, true,
      static_cast<std::uint64_t>((now - leg.start_ms) * 1000));

  Gateway::UpstreamConns& u = gw_.upstream_[leg.idx];
  loop.del(leg.fd);
  if (leg.parser.keep_alive() &&
      u.idle.size() <
          static_cast<std::size_t>(gw_.config_.max_upstream_idle)) {
    u.idle.push_back(leg.fd);  // still counts toward u.open
  } else {
    ::close(leg.fd);
    --u.open;
  }
  leg.fd = -1;
  leg.phase = Phase::Idle;
  gw_.resume_waiter(leg.idx);

  if (leg.slot == 1) gw_.metrics_.record_hedge_win();
  abandon_leg(legs_[leg.slot == 0 ? 1 : 0]);
  loop.wheel().cancel(deadline_timer_);
  loop.wheel().cancel(hedge_timer_);

  Response resp = gw_.translate_response(leg.parser);
  const int attempts = 1 + (idempotent_ ? gw_.config_.max_retries : 0);
  if (resp.status == 503 && idempotent_ && attempt_ + 1 < attempts) {
    // Overloaded replica: keep its answer as a fallback, retry elsewhere.
    last_overload_ = std::move(resp);
    exclude(leg.idx);
    next_attempt();
    return;
  }
  finish(std::move(resp));
}

void ProxyTask::next_attempt() {
  serve::TimerWheel& wheel = gw_.proxy_loop().wheel();
  wheel.cancel(deadline_timer_);
  wheel.cancel(hedge_timer_);
  ++attempt_;
  const int attempts = 1 + (idempotent_ ? gw_.config_.max_retries : 0);
  if (attempt_ >= attempts) {
    settle();
    return;
  }
  if (!gw_.budget_.try_withdraw()) {
    gw_.metrics_.record_budget_exhausted();
    settle();
    return;
  }
  gw_.metrics_.record_retry();
  begin_attempt();
}

void ProxyTask::on_deadline() {
  if (finished_) return;
  legs_[0].no_replay = true;  // no fresh-dial replay on a deadline
  legs_[1].no_replay = true;
  teardown_ = true;
  if (legs_[1].active()) leg_failed(legs_[1]);
  if (legs_[0].active()) leg_failed(legs_[0]);
  teardown_ = false;
  if (!finished_ && !legs_[0].active() && !legs_[1].active()) next_attempt();
}

void ProxyTask::on_hedge() {
  if (finished_ || attempt_ != 0 || legs_[1].active() ||
      !legs_[0].active()) {
    return;
  }
  std::vector<std::size_t> avoid = excluded_;
  avoid.push_back(legs_[0].idx);
  const std::optional<std::size_t> second =
      gw_.pick_replica(avoid, serve::EventLoop::steady_ms());
  if (!second) return;
  if (!gw_.budget_.try_withdraw()) {
    gw_.metrics_.record_budget_exhausted();
    gw_.registry_.at(*second).breaker.record_abandoned();
    return;
  }
  gw_.metrics_.record_hedge();
  open_leg(legs_[1], *second);
}

void ProxyTask::settle() {
  if (last_overload_) {
    finish(std::move(*last_overload_));
    return;
  }
  if (!attempted_) {
    Response resp = serve::error_response(503, "no healthy upstream");
    resp.extra_headers.emplace_back("Retry-After", "1");
    finish(std::move(resp));
    return;
  }
  finish(serve::error_response(502, "all upstream attempts failed"));
}

void ProxyTask::finish(serve::Response resp) {
  finished_ = true;
  serve::EventLoop& loop = gw_.proxy_loop();
  loop.wheel().cancel(deadline_timer_);
  loop.wheel().cancel(hedge_timer_);
  abandon_leg(legs_[0]);
  abandon_leg(legs_[1]);
  gw_.proxy_complete(token_, std::move(resp));
  // Deferred delete: events already harvested in this epoll batch may
  // still reference a leg; the posted op runs after the batch drains.
  loop.post([this] { delete this; });
}

}  // namespace mcmm::gateway
