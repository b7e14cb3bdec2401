#include "gateway/registry.hpp"

namespace mcmm::gateway {

const char* to_string(ReplicaHealth health) noexcept {
  switch (health) {
    case ReplicaHealth::Healthy:
      return "healthy";
    case ReplicaHealth::Ejected:
      return "ejected";
    case ReplicaHealth::HalfOpen:
      return "half-open";
  }
  return "unknown";
}

ReplicaRegistry::ReplicaRegistry(std::vector<ReplicaEndpoint> endpoints,
                                 RegistryConfig config)
    : config_(config) {
  replicas_.reserve(endpoints.size());
  for (ReplicaEndpoint& ep : endpoints) {
    replicas_.push_back(
        std::make_unique<Replica>(std::move(ep), config_.breaker));
  }
}

void ReplicaRegistry::record_probe(std::size_t i, bool success,
                                   std::uint64_t reported_in_flight,
                                   long pid) {
  Replica& r = at(i);
  if (success) {
    r.probe_failures = 0;
    r.reported_in_flight.store(reported_in_flight,
                               std::memory_order_relaxed);
    r.pid.store(pid, std::memory_order_relaxed);
    switch (r.health.load(std::memory_order_relaxed)) {
      case ReplicaHealth::Healthy:
        break;
      case ReplicaHealth::Ejected:
        // First sign of life: probation, not full traffic.
        r.probe_successes = 1;
        r.health.store(config_.readmit_after <= 1 ? ReplicaHealth::Healthy
                                                  : ReplicaHealth::HalfOpen,
                       std::memory_order_relaxed);
        break;
      case ReplicaHealth::HalfOpen:
        if (++r.probe_successes >= config_.readmit_after) {
          r.health.store(ReplicaHealth::Healthy, std::memory_order_relaxed);
        }
        break;
    }
    return;
  }
  r.probe_successes = 0;
  switch (r.health.load(std::memory_order_relaxed)) {
    case ReplicaHealth::Healthy:
      if (++r.probe_failures >= config_.eject_after) {
        r.health.store(ReplicaHealth::Ejected, std::memory_order_relaxed);
        ejections_total_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case ReplicaHealth::HalfOpen:
      // Relapsed during probation: straight back out.
      r.health.store(ReplicaHealth::Ejected, std::memory_order_relaxed);
      ejections_total_.fetch_add(1, std::memory_order_relaxed);
      r.probe_failures = config_.eject_after;
      break;
    case ReplicaHealth::Ejected:
      break;
  }
}

void ReplicaRegistry::eligible(std::vector<std::size_t>& out) const {
  out.clear();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->health.load(std::memory_order_relaxed) ==
        ReplicaHealth::Healthy) {
      out.push_back(i);
    }
  }
}

std::size_t ReplicaRegistry::healthy_count() const noexcept {
  std::size_t n = 0;
  for (const auto& r : replicas_) {
    if (r->health.load(std::memory_order_relaxed) ==
        ReplicaHealth::Healthy) {
      ++n;
    }
  }
  return n;
}

}  // namespace mcmm::gateway
